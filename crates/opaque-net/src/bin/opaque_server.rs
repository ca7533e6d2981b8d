//! `opaque-server` — stand up the framed TCP front door over a
//! generated grid map.
//!
//! ```text
//! opaque-server [--addr HOST:PORT] [--nodes N] [--seed S] [--shards K] [--smoke]
//! ```
//!
//! `--smoke` binds an ephemeral loopback port, drives a few requests
//! through a real client from a second thread, prints the resulting
//! batch report and wire stats, and exits non-zero on any mismatch —
//! the CI end-to-end check that the binary actually serves.

use opaque::{
    BatchPolicy, ClientId, PathQuery, Priority, ProtectionSettings, RequestMsg, ServiceBuilder,
};
use opaque_net::{FleetConfig, NetServer, ServerConfig, run_fleet};
use roadnet::NodeId;
use roadnet::generators::{GridConfig, grid_network};
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, Ordering};

struct Args {
    addr: String,
    nodes: u32,
    seed: u64,
    shards: usize,
    smoke: bool,
}

const USAGE: &str =
    "usage: opaque-server [--addr HOST:PORT] [--nodes N] [--seed S] [--shards K] [--smoke]";

/// Parse the command line (program name already skipped). `Ok(None)` is
/// `--help`; `Err` is a usage error.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args =
        Args { addr: "127.0.0.1:4650".to_string(), nodes: 1024, seed: 7, shards: 1, smoke: false };
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--nodes" => {
                args.nodes = value("--nodes")?.parse().map_err(|e| format!("--nodes: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--shards" => {
                args.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(args))
}

/// Operator input decides every failure here (`--nodes`, `--shards`,
/// `--addr`), so each comes back as the typed error's message, not a panic.
fn build_server(args: &Args, addr: &str) -> Result<NetServer, String> {
    let side = (args.nodes as f64).sqrt().ceil().max(4.0) as usize;
    let map =
        grid_network(&GridConfig { width: side, height: side, seed: 5, ..Default::default() })
            .map_err(|e| e.to_string())?;
    let service = ServiceBuilder::new()
        .map(map)
        .seed(args.seed)
        .shards(args.shards)
        .batch_policy(BatchPolicy { max_batch: 64, max_delay: 0.05 })
        .build()
        .map_err(|e| e.to_string())?;
    NetServer::bind(addr, service, ServerConfig::default())
        .map_err(|e| format!("cannot bind {addr}: {e}"))
}

fn smoke(args: &Args) -> Result<(), String> {
    let mut server = build_server(args, "127.0.0.1:0")?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let side = (args.nodes as f64).sqrt().ceil().max(4.0) as u32;
    let n = side * side; // NodeId space of the generated grid
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let result = server.run_until(&flag);
        (server, result)
    });

    let requests: Vec<(RequestMsg, Priority)> = (0..24u32)
        .map(|i| {
            let msg = RequestMsg {
                client: ClientId(i),
                query: PathQuery::new(NodeId(i % n), NodeId((i * 17 + n / 2) % n)),
                protection: ProtectionSettings::new(2, 2).expect("valid protection"),
            };
            let lane = if i % 3 == 0 { Priority::Bulk } else { Priority::Interactive };
            (msg, lane)
        })
        .collect();
    let outcome = run_fleet(addr, &requests, FleetConfig { connections: 2, max_in_flight: 16 })
        .map_err(|e| format!("fleet failed: {e}"))?;

    stop.store(true, Ordering::Release);
    let (server, run_result) = handle.join().map_err(|_| "server thread panicked")?;
    run_result.map_err(|e| format!("reactor failed: {e}"))?;

    if outcome.terminal_replies != requests.len() {
        return Err(format!(
            "conservation violated: {} requests, {} terminal replies",
            requests.len(),
            outcome.terminal_replies
        ));
    }
    if outcome.delivered == 0 {
        return Err(format!("no request was delivered: {outcome:?}"));
    }
    if server.stats().dropped_replies != 0 {
        return Err(format!("replies dropped on loopback: {:?}", server.stats()));
    }
    println!("smoke ok: {} requests, {} delivered", outcome.sent, outcome.delivered);
    println!("stats: {:?}", server.stats());
    for report in server.reports() {
        println!("report: {report}");
    }
    Ok(())
}

fn serve(args: &Args) -> Result<(), String> {
    let mut server = build_server(args, &args.addr)?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("opaque-server listening on {addr} ({} nodes, seed {})", args.nodes, args.seed);
    let stop = AtomicBool::new(false);
    server.run_until(&stop).map_err(|e| format!("reactor failed: {e}"))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let result = if args.smoke { smoke(&args) } else { serve(&args) };
    if let Err(msg) = result {
        eprintln!("opaque-server: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Option<Args>, String> {
        parse_args(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bad_operator_input_is_an_error_not_a_panic() {
        assert!(parse(&["--help"]).unwrap().is_none(), "--help is not an error");
        assert_eq!(parse(&["--shards"]).err().unwrap(), "--shards expects a value");
        assert_eq!(parse(&["--bogus"]).err().unwrap(), "unknown flag --bogus");
        assert!(parse(&["--nodes", "many"]).err().unwrap().starts_with("--nodes: "));

        // `--shards 0` parses; the service builder refuses it, by message.
        let zero = parse(&["--shards", "0", "--nodes", "16", "--smoke"]).unwrap().unwrap();
        assert!(zero.smoke && zero.shards == 0 && zero.nodes == 16);
        let err = build_server(&zero, "127.0.0.1:0").err().unwrap();
        assert!(err.contains("shards must be >= 1"), "{err}");

        let ok = parse(&["--nodes", "16"]).unwrap().unwrap();
        let err = build_server(&ok, "nonsense").err().unwrap();
        assert!(err.starts_with("cannot bind nonsense: "), "{err}");
        assert!(build_server(&ok, "127.0.0.1:0").is_ok());
    }
}
