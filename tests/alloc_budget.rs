//! An allocation budget for the per-request accounting, encoding and
//! decoding paths: counts, not timings, so it reads the same on every
//! host.
//!
//! The JSON writer streams a message's events into its output; it builds
//! no `serde::Value` tree and formats no intermediate `String`. Over a
//! counting output (`wire_size`) or a buffer that already has room
//! (`Connection::queue`) that means **zero** allocations. The
//! parser hands a decoded type the same events, keys borrowed from the
//! text, so a decode allocates only what the message owns. A tree, a
//! `format!` or a clone-to-count coming back fails here by name, long
//! before it shows as a few microseconds on the benchmark. The same holds
//! for a tree-cache hit, which reads its paths off the stored trace: one
//! node buffer per path, however many hops it has. A miss is held to bytes
//! instead: it allocates the trace it stores and little else.
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`; no other test pays for it. The counter is per
//! thread and every `#[test]` runs on its own thread, so the tests do not
//! see each other's (or the harness's) allocations.

use opaque::{
    AdmissionPolicy, BatchPolicy, CachePolicy, CandidateResultsMsg, ClientId, ClientRequest,
    DirectionsBackend, FakeSelection, HopTraffic, ObfuscatedPathQuery, ObfuscatedQueryMsg,
    Obfuscator, OpaqueService, PathQuery, Priority, ProtectionSettings, RequestMsg, ResultMsg,
    ServiceBuilder, ServiceEvent, Ticket, wire_size,
};
use opaque_net::wire::{decode_message, encode_message};
use opaque_net::{Connection, WireReply, WireRequest};
use pathsearch::{Goal, Path, SearchArena, SharingPolicy, TreeCache, run_in, run_tree};
use roadnet::NodeId;
use roadnet::generators::{GridConfig, grid_network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{TcpListener, TcpStream};

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated: whole blocks, and what a reallocation
    /// grew one by.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        // `try_with`: a thread's last frees can run after its locals are
        // gone. The cells are const-initialised and have no destructor, so
        // touching them never allocates.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counter is a
// thread-local `Cell` pair touched only before the forwarded call, and
// touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // this layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller-checked new size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `work` makes on this thread.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Bytes `work` allocates on this thread.
fn bytes<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = work();
    (BYTES.with(Cell::get) - before, out)
}

fn path(nodes: &[u32], distance: f64) -> Path {
    Path::new(nodes.iter().map(|&n| NodeId(n)).collect(), distance)
}

fn request_msg() -> RequestMsg {
    RequestMsg {
        client: ClientId(7),
        query: PathQuery::new(NodeId(12), NodeId(88)),
        protection: ProtectionSettings::new(3, 3).unwrap(),
    }
}

fn query() -> ObfuscatedPathQuery {
    ObfuscatedPathQuery::new((0..3).map(NodeId).collect(), (90..93).map(NodeId).collect())
}

/// Candidate rows with a disconnected pair, a fractional distance (the
/// `Display` branch of the number writer) and an empty row.
fn candidate_rows() -> Vec<Vec<Option<Path>>> {
    vec![vec![Some(path(&[0, 1, 11, 90], 3.75)), None], vec![], vec![Some(path(&[2], 0.0))]]
}

#[test]
fn the_counter_counts() {
    let (n, v) = allocations(|| vec![1u8; 64]);
    assert_eq!(n, 1, "a fresh Vec is one allocation");
    drop(v);
    let (n, _) = allocations(|| serde_json::to_vec(&request_msg()).unwrap());
    assert!(n >= 1, "producing the bytes must allocate the buffer");
}

#[test]
fn wire_size_of_every_hop_message_allocates_nothing() {
    let request = request_msg();
    let query_msg = ObfuscatedQueryMsg { query_id: 41, query: query() };
    let candidates_msg = CandidateResultsMsg { query_id: 41, paths: candidate_rows() };
    let result_msg = ResultMsg { client: ClientId(7), path: path(&[12, 13, 23, 88], 1e-3) };
    let (n, sizes) = allocations(|| {
        [
            wire_size(&request),
            wire_size(&query_msg),
            wire_size(&candidates_msg),
            wire_size(&result_msg),
        ]
    });
    assert_eq!(n, 0, "wire_size counts bytes without producing them");
    let produced = [
        serde_json::to_vec(&request).unwrap().len(),
        serde_json::to_vec(&query_msg).unwrap().len(),
        serde_json::to_vec(&candidates_msg).unwrap().len(),
        serde_json::to_vec(&result_msg).unwrap().len(),
    ];
    assert_eq!(sizes, produced);
}

#[test]
fn by_reference_records_allocate_nothing() {
    let (query, rows, delivered) = (query(), candidate_rows(), path(&[12, 13, 23, 88], 4.5));
    let mut traffic = HopTraffic::default();
    let (n, ()) = allocations(|| {
        traffic.record_query(41, &query);
        traffic.record_candidates(41, &rows);
        traffic.record_result(ClientId(7), &delivered);
    });
    assert_eq!(n, 0, "recording a hop borrows what it measures");
    assert!(traffic.queries_bytes > 0 && traffic.candidates_bytes > traffic.results_bytes);
}

#[test]
fn queue_reply_into_a_warm_outbound_buffer_allocates_nothing() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    let mut conn = Connection::new(accepted, 256 * 1024).unwrap();
    let reply = |ticket: u64| WireReply::Result {
        ticket: Ticket(ticket),
        result: ResultMsg { client: ClientId(7), path: path(&[12, 13, 23, 88], 4.5) },
        waited: 0.25,
    };
    let (first, second) = (reply(1), reply(2));
    // The first reply sizes the buffer; flushing empties it, capacity kept.
    conn.queue(&first).unwrap();
    conn.flush().unwrap();
    assert_eq!(conn.pending_out(), 0);
    let (n, queued) = allocations(|| conn.queue(&second));
    queued.unwrap();
    assert_eq!(n, 0, "a reply is serialised in place behind its header");
    assert!(conn.pending_out() > 0);
}

#[test]
fn decoding_allocates_only_what_the_message_owns() {
    // A request owns nothing on the heap. This measured 14 allocations
    // while decoding built a `Value` tree first (every key a `String`,
    // every object and array a `Vec`).
    let request = WireRequest { request: request_msg(), priority: Priority::Interactive };
    let payload = encode_message(&request).unwrap();
    decode_message::<WireRequest>(&payload).unwrap();
    let (n, decoded) = allocations(|| decode_message::<WireRequest>(&payload));
    assert_eq!(decoded.unwrap(), request);
    assert_eq!(n, 0, "a warm request decode allocates nothing");

    // A delivered path owns its node buffer, which grows as its elements
    // arrive: 3 allocations for 11 nodes (capacity 4, 8, 16), where the
    // tree made 18.
    let nodes: Vec<u32> = (0..11).map(|i| i * 10 + 3).collect();
    let reply = WireReply::Result {
        ticket: Ticket(5),
        result: ResultMsg { client: ClientId(7), path: path(&nodes, 10.5) },
        waited: 0.25,
    };
    let payload = encode_message(&reply).unwrap();
    decode_message::<WireReply>(&payload).unwrap();
    let (n, decoded) = allocations(|| decode_message::<WireReply>(&payload));
    assert_eq!(decoded.unwrap(), reply);
    let (growth, _) = allocations(|| {
        let mut buffer = Vec::new();
        for &node in &nodes {
            buffer.push(NodeId(node));
        }
        buffer
    });
    assert_eq!((n, growth), (3, 3), "a reply decode allocates its path's node buffer only");
}

/// The `wire_bare` deployment of the benchmark, in process: 10×10 grid,
/// 1×1 protection (no fakes), one shard, no cache.
fn bare_service() -> OpaqueService<opaque::DefaultBackend> {
    let map =
        grid_network(&GridConfig { width: 10, height: 10, seed: 3, ..Default::default() }).unwrap();
    ServiceBuilder::new()
        .map(map)
        .seed(14)
        .verify_results(false)
        .batch_policy(BatchPolicy { max_batch: 1, max_delay: 3600.0 })
        .admission_policy(AdmissionPolicy { queue_depth: 4, deadline: None })
        .build()
        .unwrap()
}

#[test]
fn one_warm_request_stays_under_its_allocation_ceiling() {
    // What one 1×1 request costs end to end, submit to delivered event,
    // once arenas and queues are warm. This test measured 129 at the
    // parent commit — the `Value` tree `wire_size` built four times per
    // request, and the query, candidate rows and delivered path cloned to
    // be counted — 30 once counting stopped allocating, and 26 once the
    // batch pass kept its results in request slots instead of cloning
    // each unit's query and rebuilding request order through maps (what
    // remains is the request's own unit, candidate rows, path and
    // report). It measured 24 while the grown tree's path was pushed into
    // a growing buffer and reversed, and 21 with one exact buffer. The
    // ceiling is that count.
    const CEILING: u64 = 21;
    let mut service = bare_service();
    let request = |i: u32| {
        ClientRequest::new(
            ClientId(i),
            PathQuery::new(NodeId(i % 100), NodeId((i * 37 + 55) % 100)),
            ProtectionSettings::new(1, 1).unwrap(),
        )
    };
    let mut serve = |i: u32| {
        let now = f64::from(i);
        let _ = service.submit(request(i), now);
        let events = service.tick(now).expect("a valid request is no batch-fatal error");
        assert!(
            matches!(events.first(), Some(ServiceEvent::ResponseReady { .. })),
            "request {i} was not delivered: {events:?}"
        );
    };
    (0..8).for_each(&mut serve);
    let (n, ()) = allocations(|| serve(8));
    assert!(n <= CEILING, "one warm 1x1 request made {n} allocations (ceiling {CEILING})");
}

#[test]
fn a_warm_auto_request_that_hits_a_cached_tree_stays_under_its_ceiling() {
    // One 4×1 `Auto` request on a cached service, the shape of the
    // benchmark's hotspot windows: its one tree is rooted at the target
    // and adopted from the cache, its four paths read source to target
    // straight off the trace into their source rows. This test measured 34
    // while `count_fakes` built a hash set of the unit's true endpoints and
    // the delivered path was cloned out of its candidate row, 32 with both
    // gone, and 30 once the paths stopped going through a swapped matrix
    // (its outer `Vec` and the tree's row) that was then transposed. The
    // ceiling is that count: one more allocation per hit fails here.
    const CEILING: u64 = 30;
    let map =
        grid_network(&GridConfig { width: 30, height: 30, seed: 3, ..Default::default() }).unwrap();
    let mut service = ServiceBuilder::new()
        .map(map)
        .seed(14)
        .fake_selection(FakeSelection::Uniform)
        .sharing_policy(SharingPolicy::Auto)
        .cache_policy(CachePolicy::Lru { trees: 64 })
        .verify_results(false)
        .batch_policy(BatchPolicy { max_batch: 1, max_delay: 3600.0 })
        .admission_policy(AdmissionPolicy { queue_depth: 4, deadline: None })
        .build()
        .unwrap();
    // Every trip ends at the hotspot; its fakes are keyed by the trip, so
    // the same trip sent again sends the same query.
    let request = |client: u32, trip: u32| {
        ClientRequest::new(
            ClientId(client),
            PathQuery::new(NodeId(trip * 97 % 900), NodeId(465)),
            ProtectionSettings::new(4, 1).unwrap(),
        )
    };
    let serve = |service: &mut OpaqueService<opaque::DefaultBackend>, client: u32, trip: u32| {
        let now = f64::from(client);
        let _ = service.submit(request(client, trip), now);
        let events = service.tick(now).expect("a valid request is no batch-fatal error");
        assert!(
            matches!(events.first(), Some(ServiceEvent::ResponseReady { .. })),
            "request {client} was not delivered: {events:?}"
        );
    };
    (0..8).for_each(|i| serve(&mut service, i, i));
    serve(&mut service, 8, 3);
    let hits = service.backend().stats().tree_cache_hits;
    let (n, ()) = allocations(|| serve(&mut service, 9, 3));
    assert_eq!(
        service.backend().stats().tree_cache_hits,
        hits + 1,
        "the retried trip adopts its tree"
    );
    assert!(n <= CEILING, "one warm 4x1 Auto hit made {n} allocations (ceiling {CEILING})");
}

/// Allocations one independent 3×3 ring obfuscation makes on a
/// `side × side` grid, for a trip from a third to two thirds of the way
/// across it — so the annulus holds ~100× more nodes on a 10× wider map.
fn ring_obfuscation_allocations(side: usize) -> u64 {
    let map =
        grid_network(&GridConfig { width: side, height: side, seed: 3, ..Default::default() })
            .unwrap();
    let obfuscator = Obfuscator::new(map, FakeSelection::default_ring(), 14);
    let node = |x: usize, y: usize| NodeId::from_index(y * side + x);
    let request = ClientRequest::new(
        ClientId(1),
        PathQuery::new(node(side / 3, side / 3), node(2 * side / 3, 2 * side / 3)),
        ProtectionSettings::new(3, 3).unwrap(),
    );
    let (n, unit) = allocations(|| obfuscator.obfuscate_independent(&request));
    assert!(unit.unwrap().is_well_formed());
    n
}

#[test]
fn ring_fakes_allocate_the_same_on_any_map_size() {
    // Ring fakes are drawn from a row-span cover of the annulus, never
    // listed: one span buffer per draw set-up, whatever the band holds.
    // The materialised annulus this replaced grew its `Vec` O(log band)
    // times, so it made more allocations on the larger map.
    let small = ring_obfuscation_allocations(30);
    let large = ring_obfuscation_allocations(300);
    assert_eq!(small, large, "a 300x300 grid made {large} allocations, a 30x30 one {small}");
}

#[test]
fn a_cache_hit_allocates_one_buffer_per_path() {
    // A hit reads a path by walking the target's parents — through a
    // map-spanning trace's parent column, or through an early-stopped
    // trace's sorted pairs — and counts the hops before it allocates, so a
    // long path costs the one node buffer a short one does. Pushing the hops
    // into a growing buffer made 2 allocations for 1 hop and 6 for 58.
    let side = 30;
    let map =
        grid_network(&GridConfig { width: side, height: side, seed: 3, ..Default::default() })
            .unwrap();
    let node = |x: usize, y: usize| NodeId::from_index(y * side + x);
    let (mut arena, mut cache) = (SearchArena::new(), TreeCache::new(4, SharingPolicy::PerSource));
    let (spanning, stopped) = (node(0, 0), node(side - 1, side - 1));
    let deep = node(side - 9, side - 9);
    run_tree(&mut arena, &map, spanning, &Goal::AllNodes, None, Some(&mut cache));
    run_tree(&mut arena, &map, stopped, &Goal::Single(deep), None, Some(&mut cache));
    assert!(cache.peek(spanning).unwrap().is_complete());
    assert!(!cache.peek(stopped).unwrap().is_complete());

    for (root, near, far) in
        [(spanning, node(1, 0), stopped), (stopped, node(side - 2, side - 1), deep)]
    {
        let mut read = |t: NodeId| {
            let goal = Goal::Single(t);
            let (hits, _) = cache.counters();
            let (n, path) = allocations(|| {
                let (_, view) = run_tree(&mut arena, &map, root, &goal, None, Some(&mut cache));
                view.path_to(t)
            });
            assert_eq!(cache.counters().0, hits + 1, "root {root}: a warm hit");
            (n, path.unwrap().num_edges())
        };
        let ((short, near_hops), (long, far_hops)) = (read(near), read(far));
        assert!(far_hops >= 8 * near_hops, "root {root}: {near_hops} vs {far_hops} hops");
        assert_eq!((short, long), (1, 1), "root {root}: one node buffer per path");
    }
}

#[test]
fn an_arena_tree_allocates_one_buffer_per_path() {
    // A grown tree is read by the walk a cache hit is read by: it counts
    // the hops through the arena's parent slab before it allocates, so a
    // long path costs the one node buffer a short one does. Pushing the
    // hops into a growing buffer and reversing it made 2 allocations for 1
    // hop and 6 for 58.
    let side = 30;
    let map =
        grid_network(&GridConfig { width: side, height: side, seed: 3, ..Default::default() })
            .unwrap();
    let node = |x: usize, y: usize| NodeId::from_index(y * side + x);
    let (root, near, far) = (node(0, 0), node(1, 0), node(side - 1, side - 1));
    // A warm arena: it has hosted a map-spanning tree from the same root.
    let mut arena = SearchArena::new();
    run_in(&mut arena, &map, root, &Goal::AllNodes);
    let (_, view) = run_tree(&mut arena, &map, root, &Goal::Set(vec![near, far]), None, None);
    let read = |t: NodeId| {
        let (n, path) = allocations(|| view.path_to(t));
        (n, path.unwrap().num_edges())
    };
    let ((short, near_hops), (long, far_hops)) = (read(near), read(far));
    assert!(far_hops >= 8 * near_hops, "{near_hops} vs {far_hops} hops");
    assert_eq!((short, long), (1, 1), "one node buffer per path");
}

#[test]
fn a_cache_miss_allocates_what_its_trace_keeps() {
    // A miss builds its trace from the arena once the sweep is done:
    // 16-B bucket entries, and an index of 12 B per settle — a slot and a
    // parent beside each settled node, sorted when the sweep stopped early.
    // A map-spanning trace keeps a slot and a parent column instead (8 B
    // per map node). The sweep's settle log grows in the arena. A settle
    // log reserved for every map node and copied into the trace afterwards
    // made the 780-settle miss below allocate 2.2 MB; it allocated 0.75 MB
    // while the recording copied each parent into a second node column too,
    // and 4 B per map node more while it wrote a node → slot column.
    let side = 300;
    let map =
        grid_network(&GridConfig { width: side, height: side, seed: 3, ..Default::default() })
            .unwrap();
    let n = map.num_nodes();
    let node = |x: usize, y: usize| NodeId::from_index(y * side + x);
    let (spanning, stopped) = (node(0, 0), node(side / 2, side / 2));
    // A warm arena: its bucket ring has hosted a map-spanning tree from the
    // same root.
    let mut arena = SearchArena::preallocated(n, 1);
    run_in(&mut arena, &map, spanning, &Goal::AllNodes);
    let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
    for (root, goal) in
        [(stopped, Goal::Single(node(side / 2 + 12, side / 2))), (spanning, Goal::AllNodes)]
    {
        let (got, _) = bytes(|| run_tree(&mut arena, &map, root, &goal, None, Some(&mut cache)).0);
        assert_eq!(cache.counters().1, 1 + u64::from(root == spanning), "root {root}: a miss");
        let trace = cache.peek(root).unwrap();
        assert_eq!(trace.is_complete(), root == spanning, "root {root}");
        let per_node = if root == spanning { 8 } else { 0 };
        let bound = per_node * n + 48 * trace.len() + 4096;
        assert!(
            got <= bound as u64,
            "root {root}: {got} B for {} settles on {n} nodes, over {bound} B",
            trace.len()
        );
    }
}

/// Bytes and allocations one early-stopped cache miss makes on a
/// `side × side` lattice of unit arcs — from 20 steps in from a corner to
/// 12 steps further along the row, so the same miss on any map size — and
/// the settles it stores. The arena is preallocated: its label slabs are
/// the map's, and not counted.
fn miss_allocations(side: usize) -> (u64, u64, usize) {
    let lattice = GridConfig {
        width: side,
        height: side,
        jitter: 0.0,
        weight_factor: (1.0, 1.0),
        knockout: 0.0,
        ..Default::default()
    };
    let map = grid_network(&lattice).unwrap();
    let node = |x: usize, y: usize| NodeId::from_index(y * side + x);
    let mut arena = SearchArena::preallocated(map.num_nodes(), 1);
    let mut cache = TreeCache::new(4, SharingPolicy::PerSource);
    let (root, goal) = (node(20, 20), Goal::Single(node(32, 20)));
    let (got, (count, _)) =
        bytes(|| allocations(|| run_tree(&mut arena, &map, root, &goal, None, Some(&mut cache)).0));
    let trace = cache.peek(root).expect("a miss stores its trace");
    assert!(!trace.is_complete(), "{side}: an early stop");
    (got, count, trace.len())
}

#[test]
fn a_cache_miss_allocates_the_same_on_any_map_size() {
    // Nothing a miss allocates is sized by the map: its trace and the
    // arena's settle log are sized by its settles. The node → slot column
    // a recording used to fill made the same miss allocate 4 B per map node
    // more on the larger map.
    let small = miss_allocations(300);
    let large = miss_allocations(1_000);
    assert_eq!(small, large, "the same miss on a 300x300 and a 1000x1000 lattice");
}
