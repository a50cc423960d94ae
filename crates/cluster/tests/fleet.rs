//! An in-process fleet, end to end over real TCP: a primary, replicas,
//! and a router — exercising replication catch-up, position-gated reads,
//! write rejection, router consistency, replica failover, a
//! late-joining replica converging byte-identically (modulo epoch tags)
//! with the primary, replicas crossing the primary's compacting
//! generations, and a recorded scenario replayed through the router
//! against its recording.

use algrec_cluster::{
    catch_up, open_primary, serve_primary, serve_replica, serve_router, Position, Replica,
    ReplicaCore, RouterConfig,
};
use algrec_datalog::Semantics;
use algrec_scenario::replay::setup_session;
use algrec_scenario::{
    diff_modulo_epoch, load_scenario, replay, strip_epoch, ReplayOptions, TcpConnector,
};
use algrec_serve::{QueryAnswer, Session, SharedSession};
use algrec_store::{StoreOptions, SyncPolicy};
use algrec_value::{Budget, Trace};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A blocking line-protocol client.
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(stream),
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        assert!(
            self.reader.read_line(&mut reply).unwrap() > 0,
            "server closed"
        );
        reply.trim_end().to_string()
    }
}

fn listen() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (listener, addr)
}

fn shutdown(addr: &str) {
    let mut client = Client::connect(addr);
    let reply = client.roundtrip("{\"id\":0,\"op\":\"shutdown\"}");
    assert!(reply.contains("\"bye\":true"), "{reply}");
}

struct Fleet {
    dir: PathBuf,
    primary_addr: String,
    replica_addrs: Vec<String>,
    replicas: Vec<Replica>,
    threads: Vec<JoinHandle<()>>,
}

const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).";

/// Stand up a primary (seeded with a graph and a view) plus `n`
/// replicas, all caught up.
fn fleet(tag: &str, n: usize) -> Fleet {
    fleet_seeded(tag, n, |session| {
        session
            .load("e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 1). e(2, 5).")
            .unwrap();
        session
            .register_datalog("closure", TC, Semantics::SemiNaive)
            .unwrap();
    })
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("algrec-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Stand up a primary seeded through its durability hook by `seed`, so
/// the seed replicates, plus `n` replicas, all caught up.
fn fleet_seeded(tag: &str, n: usize, seed: impl FnOnce(&mut Session)) -> Fleet {
    let dir = scratch(tag);
    let (mut session, _, primary) =
        open_primary(&dir, Budget::LARGE, StoreOptions::default()).unwrap();
    seed(&mut session);
    let shared = Arc::new(SharedSession::new(session));
    let (listener, primary_addr) = listen();
    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        let primary = Arc::clone(&primary);
        threads.push(std::thread::spawn(move || {
            serve_primary(listener, shared, primary)
        }));
    }
    let mut replicas = Vec::new();
    let mut replica_addrs = Vec::new();
    for _ in 0..n {
        let (replica, addr, thread) = join_replica(&primary_addr);
        replicas.push(replica);
        replica_addrs.push(addr);
        threads.push(thread);
    }
    let target = primary.position();
    for replica in &replicas {
        await_catch_up(replica, target);
    }
    Fleet {
        dir,
        primary_addr,
        replica_addrs,
        replicas,
        threads,
    }
}

fn join_replica(primary_addr: &str) -> (Replica, String, JoinHandle<()>) {
    let shared = Arc::new(SharedSession::new(Session::new(Budget::LARGE)));
    let replica = Replica::start(primary_addr, Arc::clone(&shared)).unwrap();
    let (listener, addr) = listen();
    let state = Arc::clone(replica.state());
    let thread = std::thread::spawn(move || serve_replica(listener, shared, state));
    (replica, addr, thread)
}

fn await_catch_up(replica: &Replica, target: Position) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let have = replica.state().position();
        if have >= target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "catch-up timed out: {have:?} < {target:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

impl Fleet {
    fn teardown(mut self, skip_replica_servers: &[usize]) {
        for (i, addr) in self.replica_addrs.iter().enumerate() {
            if !skip_replica_servers.contains(&i) {
                shutdown(addr);
            }
        }
        for replica in &mut self.replicas {
            replica.stop();
        }
        shutdown(&self.primary_addr);
        for thread in self.threads.drain(..) {
            thread.join().unwrap();
        }
        std::fs::remove_dir_all(&self.dir).unwrap();
    }
}

const READS: [&str; 4] = [
    "{\"id\":21,\"op\":\"db\"}",
    "{\"id\":22,\"op\":\"views\"}",
    "{\"id\":23,\"op\":\"query\",\"view\":\"closure\"}",
    "{\"id\":24,\"op\":\"ping\",\"health\":true}",
];

#[test]
fn replicas_answer_like_the_primary_and_enforce_their_role() {
    let fleet = fleet("roles", 2);
    let mut primary = Client::connect(&fleet.primary_addr);
    let mut replica = Client::connect(&fleet.replica_addrs[0]);

    // Caught-up replicas answer reads byte-identically modulo epoch.
    for read in READS {
        assert_eq!(
            strip_epoch(&replica.roundtrip(read)),
            strip_epoch(&primary.roundtrip(read)),
            "replica diverged on {read}"
        );
    }

    // Writes are rejected with `read-only`.
    let reply = replica.roundtrip("{\"fact\":\"e(8, 9)\",\"id\":30,\"op\":\"assert\"}");
    assert!(reply.contains("\"code\":\"read-only\""), "{reply}");

    // A pin the replica has applied passes; an unreachable pin is stale.
    let reply = replica.roundtrip("{\"id\":31,\"min_epochs\":[0,0],\"op\":\"db\"}");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let reply = replica.roundtrip("{\"id\":32,\"min_epochs\":[9999,9999],\"op\":\"db\"}");
    assert!(reply.contains("\"code\":\"stale\""), "{reply}");

    // Replicas do not serve replication pulls.
    let reply = replica.roundtrip("{\"id\":33,\"op\":\"repl\"}");
    assert!(reply.contains("\"code\":\"not-primary\""), "{reply}");

    // Stats shapes for both roles.
    let reply = primary.roundtrip("{\"id\":34,\"op\":\"cluster-stats\"}");
    assert!(
        reply.contains("\"role\":\"primary\"") && reply.contains("\"epochs\":[0,2]"),
        "{reply}"
    );
    let reply = replica.roundtrip("{\"id\":35,\"op\":\"cluster-stats\"}");
    assert!(
        reply.contains("\"role\":\"replica\"")
            && reply.contains("\"connected\":true")
            && reply.contains("\"epochs\":[0,2]")
            && reply.contains("\"bootstraps\":0"),
        "{reply}"
    );
    fleet.teardown(&[]);
}

/// A pin that is not a position — a non-integer, a negative count, the
/// wrong length, not an array — is a bad request, never a satisfied pin.
#[test]
fn a_malformed_pin_is_a_bad_request() {
    let fleet = fleet("pins", 1);
    let mut replica = Client::connect(&fleet.replica_addrs[0]);
    for pin in [
        "[\"x\"]",
        "[\"x\",0]",
        "[0,-1]",
        "[0]",
        "[0,0,0]",
        "[]",
        "0",
        "null",
    ] {
        let line = format!("{{\"id\":36,\"min_epochs\":{pin},\"op\":\"db\"}}");
        let reply = replica.roundtrip(&line);
        assert!(reply.contains("\"code\":\"bad-request\""), "{pin}: {reply}");
    }
    fleet.teardown(&[]);
}

#[test]
fn router_survives_a_dead_replica_and_late_joiners_converge() {
    let mut fleet = fleet("failover", 2);
    let (listener, router_addr) = listen();
    let config = RouterConfig {
        primary: fleet.primary_addr.clone(),
        replicas: fleet.replica_addrs.clone(),
    };
    let router_thread = std::thread::spawn(move || serve_router(listener, config));
    let mut router = Client::connect(&router_addr);

    // A write through the router is immediately visible to the very
    // next read (the router pins the primary's epochs, and replicas
    // answer `stale` until they apply them).
    let reply = router.roundtrip("{\"fact\":\"e(9, 1)\",\"id\":40,\"op\":\"assert\"}");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let reply = router.roundtrip("{\"id\":41,\"op\":\"query\",\"view\":\"closure\"}");
    assert!(reply.contains("tc(9, 1)"), "{reply}");

    // Kill one replica server; reads through the router keep working.
    shutdown(&fleet.replica_addrs[0]);
    fleet.replicas[0].stop();
    for i in 0..6 {
        let reply = router.roundtrip(&format!("{{\"id\":5{i},\"op\":\"db\"}}"));
        assert!(reply.contains("\"ok\":true"), "read {i} failed: {reply}");
    }

    // Merged stats keep answering (the dead replica reports as null).
    let reply = router.roundtrip("{\"id\":60,\"op\":\"cluster-stats\"}");
    assert!(
        reply.contains("\"role\":\"router\"") && reply.contains("\"role\":\"primary\""),
        "{reply}"
    );

    // A late joiner catches up with everything written so far and then
    // answers byte-identically modulo epoch.
    let (replica, addr, thread) = join_replica(&fleet.primary_addr);
    let mut primary = Client::connect(&fleet.primary_addr);
    let probe = Client::connect(&addr); // hold the server loop open
    drop(probe);
    let reply = primary.roundtrip("{\"id\":61,\"op\":\"repl\"}");
    let reply = algrec_serve::json::parse(&reply).unwrap();
    let at = Position::from_json(reply.get("epochs").unwrap()).unwrap();
    await_catch_up(&replica, at);
    let mut late = Client::connect(&addr);
    for read in READS {
        assert_eq!(
            strip_epoch(&late.roundtrip(read)),
            strip_epoch(&primary.roundtrip(read)),
            "late joiner diverged on {read}"
        );
    }

    shutdown(&router_addr);
    router_thread.join().unwrap();
    shutdown(&addr);
    drop(replica);
    thread.join().unwrap();
    fleet.teardown(&[0]);
}

/// A recorded scenario replayed through the router — writes forwarded to
/// the primary, reads served by the replica under the router's epoch
/// pin — answers exactly like its recording, modulo epoch tags.
#[test]
fn scenario_replays_through_the_router_like_its_recording() {
    let scenario = load_scenario(&PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/social_reachability"
    )))
    .unwrap();
    let expected = scenario.expected.clone().expect("recorded scenario");
    let fleet = fleet_seeded("scenario", 1, |session| {
        setup_session(session, &scenario).unwrap()
    });
    let (listener, router_addr) = listen();
    let config = RouterConfig {
        primary: fleet.primary_addr.clone(),
        replicas: fleet.replica_addrs.clone(),
    };
    let router_thread = std::thread::spawn(move || serve_router(listener, config));

    let connector = TcpConnector::new(router_addr.parse().unwrap());
    let options = ReplayOptions {
        concurrency: 4,
        scale: 1,
    };
    let outcome = replay(&scenario, &connector, options).unwrap();
    if let Some(d) = diff_modulo_epoch(&scenario.trace, &expected, &outcome.replies) {
        panic!("replay through the router diverged from the recording:\n{d}");
    }

    shutdown(&router_addr);
    router_thread.join().unwrap();
    fleet.teardown(&[]);
}

/// Everything observable about a session, for equality checks.
fn observe(session: &mut Session) -> (Vec<(String, usize)>, Vec<String>, Vec<QueryAnswer>) {
    let views: Vec<String> = session
        .view_names()
        .iter()
        .map(|(name, ..)| name.clone())
        .collect();
    let answers = views
        .iter()
        .map(|name| session.query(name, None).unwrap())
        .collect();
    (session.db_summary(), views, answers)
}

/// How many files in `dir` have a name starting with `prefix`.
fn count_files(dir: &Path, prefix: &str) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|entry| {
            entry
                .as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with(prefix)
        })
        .count()
}

/// A primary snapshotting every two records keeps at most two log and
/// two snapshot generations however long it runs, and reopens by
/// replaying at most one cadence of records. A replica that lags across
/// a compaction re-bootstraps from the newest snapshot; one that stays a
/// generation behind crosses every seal without a bootstrap. Both
/// converge to the primary.
#[test]
fn a_compacting_primary_stays_bounded_and_replicas_cross_its_generations() {
    let dir = scratch("compaction");
    let options = StoreOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(2),
    };
    let (mut session, _, primary) = open_primary(&dir, Budget::LARGE, options).unwrap();
    session
        .register_datalog("closure", TC, Semantics::SemiNaive)
        .unwrap();
    let shared = Arc::new(SharedSession::new(session));
    let (listener, addr) = listen();
    let server = {
        let shared = Arc::clone(&shared);
        let primary = Arc::clone(&primary);
        std::thread::spawn(move || serve_primary(listener, shared, primary))
    };
    let replica_core =
        || ReplicaCore::new(Arc::new(SharedSession::new(Session::new(Budget::LARGE))));
    let mut lagging = replica_core();
    let mut following = replica_core();
    catch_up(&addr, &mut lagging).unwrap();
    catch_up(&addr, &mut following).unwrap();
    assert_eq!(lagging.position(), primary.position());

    let mut client = Client::connect(&addr);
    for cycle in 0..12 {
        // Two commits: one generation at this cadence.
        for k in 0..2 {
            let line = format!(
                "{{\"fact\":\"e({cycle}, {})\",\"id\":{k},\"op\":\"assert\"}}",
                cycle + k + 1
            );
            let reply = client.roundtrip(&line);
            assert!(reply.contains("\"ok\":true"), "{reply}");
        }
        let before = following.position();
        catch_up(&addr, &mut following).unwrap();
        assert_eq!(following.position(), primary.position());
        assert_eq!(following.position().gen, before.gen + 1, "one seal crossed");
        assert!(count_files(&dir, "wal-") <= 2, "cycle {cycle}");
        assert!(count_files(&dir, "snapshot-") <= 2, "cycle {cycle}");
    }
    assert!(primary.position().gen >= 12);

    // The lagging replica's generation 0 is long compacted.
    catch_up(&addr, &mut lagging).unwrap();
    assert_eq!(lagging.position(), primary.position());
    assert_eq!(lagging.state().bootstraps.load(Ordering::SeqCst), 1);
    assert_eq!(following.state().bootstraps.load(Ordering::SeqCst), 0);
    let ((expected, _), _) = shared
        .with_writer(|session| (observe(session), ()))
        .unwrap();
    for core in [&lagging, &following] {
        let (have, _) = core.shared().with_writer(observe).unwrap();
        assert_eq!(have, expected);
    }

    shutdown(&addr);
    server.join().unwrap();
    drop(client);
    drop(shared);
    let (mut reopened, report) =
        algrec_store::open(&dir, Budget::LARGE, options, Trace::Null).unwrap();
    assert!(report.replayed <= 2, "{report:?}");
    assert_eq!(observe(&mut reopened), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}
