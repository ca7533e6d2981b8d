//! A minimal readiness reactor over poll(2).
//!
//! The build is offline and dependency-free, so instead of mio/libc this
//! module issues the `poll` syscall directly (one `asm!` instruction on
//! x86_64 Linux) against `#[repr(C)]` pollfd structs. The server runs
//! level-triggered: each loop iteration rebuilds the pollfd slice from
//! live connections — O(conns) per tick, which is fine at the fleet
//! sizes the load harness drives over loopback.
//!
//! On any other platform the [`poll`] shim sleeps briefly and reports
//! every fd ready. That is safe, not just a stub: all sockets are
//! non-blocking and every read/write path handles `WouldBlock`, so
//! spurious readiness only costs a syscall — correctness never depends
//! on the poller's verdict.

use std::io;
use std::os::fd::RawFd;

/// Readable readiness (`POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writable readiness (`POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (`POLLERR`, revents only).
const POLLERR: i16 = 0x008;
/// Peer hung up (`POLLHUP`, revents only).
const POLLHUP: i16 = 0x010;

/// Mirror of the kernel's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Kernel-reported events; cleared before each poll.
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }

    /// The kernel reported the fd readable (or in a state — error/hangup —
    /// where a read is needed to observe it).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }

    /// The kernel reported the fd writable (or errored; the write
    /// surfaces the error).
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }
}

/// Wait up to `timeout_ms` for readiness on `fds`; returns how many
/// entries have non-zero `revents`. A wait a signal cuts short (EINTR)
/// reads as a timeout: zero ready.
///
/// # Errors
/// The kernel's errno as an [`io::Error`], EINTR excepted.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // x86_64 syscall 7 = poll(struct pollfd *fds, nfds_t nfds, int timeout).
    let ret: isize;
    // SAFETY: this is a raw `poll(2)` invocation, and every part of the
    // kernel's contract is discharged locally. (1) `rdi` carries
    // `fds.as_mut_ptr()`, which points at `fds.len()` (`rsi`) contiguous,
    // initialized `PollFd`s; `PollFd` is `#[repr(C)]` with the exact
    // field order/widths of the kernel's `struct pollfd`, so the kernel
    // reads `fd`/`events` and writes `revents` entirely within the
    // slice's allocation, which the `&mut [PollFd]` borrow keeps alive
    // and exclusive for the whole (blocking) call. (2) `poll` only ever
    // writes `revents` — it cannot produce a bit pattern that is invalid
    // for `i16`, so no `PollFd` is left in an invalid state on any path,
    // EINTR included. (3) The clobber list matches the syscall ABI:
    // `rcx`/`r11` are declared clobbered (the kernel overwrites them
    // with rip/rflags), `rax` is the in/out return register, and
    // `options(nostack)` holds because the instruction touches no stack
    // memory. The non-Linux/non-x86_64 build never reaches this block —
    // it uses the sleep-and-assume-ready fallback below, which is sound
    // because all sockets are non-blocking and spurious readiness only
    // costs a `WouldBlock` (see the module docs).
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 7isize => ret,
            in("rdi") fds.as_mut_ptr(),
            in("rsi") fds.len(),
            in("rdx") timeout_ms as isize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret >= 0 {
        return Ok(ret as usize);
    }
    let err = io::Error::from_raw_os_error(-ret as i32);
    if err.kind() == io::ErrorKind::Interrupted { Ok(0) } else { Err(err) }
}

/// Portable fallback: sleep a slice of the timeout, then report every fd
/// ready for what it asked. See the module docs for why this is sound.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    if timeout_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(timeout_ms.min(5) as u64));
    }
    for fd in fds.iter_mut() {
        fd.revents = fd.events;
    }
    Ok(fds.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn pending_connection_marks_listener_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        // The connect may still be in flight; give the kernel a moment.
        let mut ready = 0;
        for _ in 0..100 {
            ready = poll(&mut fds, 50).unwrap();
            if ready > 0 {
                break;
            }
        }
        assert_eq!(ready, 1);
        assert!(fds[0].readable());
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn idle_socket_times_out_with_zero_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = TcpStream::connect(addr).unwrap();
        let (_accepted, _) = listener.accept().unwrap();
        // Nothing written yet: the client socket has no readable data.
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let ready = poll(&mut fds, 20).unwrap();
        assert_eq!(ready, 0);
        assert_eq!(fds[0].revents, 0);
    }

    #[test]
    fn written_bytes_mark_the_peer_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let mut fds = [PollFd::new(accepted.as_raw_fd(), POLLIN | POLLOUT)];
        let mut readable = false;
        for _ in 0..100 {
            poll(&mut fds, 50).unwrap();
            if fds[0].readable() {
                readable = true;
                break;
            }
            fds[0].revents = 0;
        }
        assert!(readable, "4 written bytes never became readable");
        assert!(fds[0].writable(), "a fresh socket should accept writes");
    }
}
