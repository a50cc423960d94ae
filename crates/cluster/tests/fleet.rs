//! An in-process fleet, end to end over real TCP: a sharded primary,
//! replicas, and a router — exercising replication catch-up,
//! epoch-gated reads, write rejection, router consistency, replica
//! failover, a late-joining replica converging byte-identically
//! (modulo epoch tags) with the primary, and a recorded scenario
//! replayed through the router against its recording.
//!
//! No process-global knobs are touched here, so this file may grow more
//! tests; the single-test discipline only applies to knob-mutating
//! binaries like `shard_differential`.

use algrec_cluster::{
    open_primary, serve_primary, serve_replica, serve_router, Replica, RouterConfig,
};
use algrec_datalog::Semantics;
use algrec_scenario::replay::setup_session;
use algrec_scenario::{
    diff_modulo_epoch, load_scenario, replay, strip_epoch, ReplayOptions, TcpConnector,
};
use algrec_serve::{Session, SharedSession};
use algrec_store::SyncPolicy;
use algrec_value::Budget;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
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

/// Stand up a primary (2 shards, seeded with a graph and a view) plus
/// `n` replicas, all caught up.
fn fleet(tag: &str, n: usize) -> Fleet {
    fleet_seeded(tag, n, |session| {
        session
            .load("e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 1). e(2, 5).")
            .unwrap();
        session
            .register_datalog(
                "closure",
                "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).",
                Semantics::SemiNaive,
            )
            .unwrap();
    })
}

/// Stand up a primary (2 shards) seeded through its durability hook by
/// `seed`, so the seed replicates, plus `n` replicas, all caught up.
fn fleet_seeded(tag: &str, n: usize, seed: impl FnOnce(&mut Session)) -> Fleet {
    let dir = std::env::temp_dir().join(format!("algrec-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut session, _, shards) =
        open_primary(&dir, 2, Budget::LARGE, SyncPolicy::Always).unwrap();
    seed(&mut session);
    let shared = Arc::new(SharedSession::new(session));
    let (listener, primary_addr) = listen();
    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        let shards = Arc::clone(&shards);
        threads.push(std::thread::spawn(move || {
            serve_primary(listener, shared, shards)
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
    let target = shards.epochs();
    for replica in &replicas {
        await_catch_up(replica, &target);
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

fn await_catch_up(replica: &Replica, target: &[u64]) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let have = replica.state().epoch_vector();
        if have.iter().zip(target).all(|(h, t)| h >= t) {
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
        reply.contains("\"role\":\"primary\"") && reply.contains("\"shards\":2"),
        "{reply}"
    );
    let reply = replica.roundtrip("{\"id\":35,\"op\":\"cluster-stats\"}");
    assert!(
        reply.contains("\"role\":\"replica\"") && reply.contains("\"connected\":true"),
        "{reply}"
    );
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
    let epochs: Vec<u64> = {
        let tail = reply.split("\"epochs\":[").nth(1).unwrap();
        tail.split(']')
            .next()
            .unwrap()
            .split(',')
            .map(|s| s.parse().unwrap())
            .collect()
    };
    await_catch_up(&replica, &epochs);
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
