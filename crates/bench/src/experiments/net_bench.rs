//! Ablation **A10**: the TCP serving front-end under request pipelining.
//!
//! `balloc-net` puts a real socket in front of the serving stack: an
//! edge-triggered epoll reactor decodes the binary wire protocol and
//! batches each connection's pipelined requests into the same
//! `call_block` runs the in-process engines use. Pipeline depth is the
//! paper's batch size `b` wearing a network costume — a window of `P`
//! requests decided against one snapshot is a `b`-Batch, and the
//! snapshot's age when a request lands is its `τ`-Delay — so this
//! experiment sweeps a `connections × pipeline` grid over loopback and
//! reports, per cell:
//!
//! * **throughput** (replies/s at the load generator) and the
//!   **p50/p99/p999** reply latencies from the serve layer's 64-bucket
//!   histogram, and
//! * **conservation**: every accepted request is answered, and the
//!   server's final load vector holds exactly `served` balls (asserted
//!   inside `balloc-net` and re-checked here across the socket).
//!
//! An in-process single-worker `serve_bench` cell at the same scale runs
//! first; the per-request **overhead** column is the difference of
//! reciprocal throughputs — what the wire, the syscalls, and the reactor
//! cost per decision.
//!
//! With `--replay`, the server runs in replay mode and the load
//! generator reconstructs the global round-robin decision digest from
//! the bins it got back; both must equal
//! [`balloc_serve::run_replay`]'s digest for the same `(config, seed)` —
//! the determinism contract surviving a real TCP exchange. The parity
//! check also runs (at one small cell) in every non-replay invocation,
//! so `balloc all --smoke` exercises it in CI.

use std::net::SocketAddr;

use balloc_net::{run_loadgen, LoadGenConfig, NetConfig, NetServer, ServerMode, ServerReport};
use balloc_serve::{
    run_replay, BackendKind, NoiseMode, Request, ServeConfig, SnapshotPath, Staleness,
};
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct NetCell {
    connections: usize,
    pipeline: usize,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    completed: u64,
    errors: u64,
    /// Per-request cost of the socket path over the in-process baseline,
    /// microseconds (negative values clamp to 0: measurement noise).
    overhead_us: f64,
}

#[derive(Serialize)]
struct ReplayParity {
    connections: usize,
    requests: u64,
    /// Digest reconstructed by the load generator from returned bins.
    client_digest: String,
    /// Digest the server computed in serve order.
    server_digest: String,
    /// Digest of the in-process replay engine at the same config/seed.
    in_process_digest: String,
}

#[derive(Serialize)]
struct NetBenchArtifact {
    scale: String,
    n: usize,
    shards: usize,
    batch: u64,
    d: usize,
    requests_per_cell: u64,
    /// In-process single-worker baseline the overhead column is measured
    /// against, replies/s.
    in_process_rps: f64,
    cpus: usize,
    /// Present iff the host exposes a single hardware thread: client and
    /// server time-slice one core, so throughput is a lower bound and
    /// tail latencies include scheduler hops.
    cpu_caveat: Option<String>,
    cells: Vec<NetCell>,
    replay: Vec<ReplayParity>,
}

/// The honesty note for single-CPU hosts: over loopback the load
/// generator and the reactor contend for the same hardware thread.
fn single_core_caveat(cpus: usize) -> Option<String> {
    (cpus == 1).then(|| {
        "loopback-shared-core: this host exposes 1 hardware thread, so the load \
         generator and the reactor time-slice it; throughput is a lower bound and \
         tail latencies include scheduler hops"
            .to_string()
    })
}

/// Per-request overhead of the socket path vs the in-process baseline,
/// in microseconds (clamped at 0).
fn overhead_us(net_rps: f64, in_process_rps: f64) -> f64 {
    if net_rps <= 0.0 || in_process_rps <= 0.0 {
        return 0.0;
    }
    (1e6 / net_rps - 1e6 / in_process_rps).max(0.0)
}

/// The grid axes: `[1, mid, max]`, deduplicated and capped at `max`.
fn axis(max: usize, mid: usize) -> Vec<usize> {
    let mut points = vec![1, mid, max];
    points.retain(|&p| p >= 1 && p <= max);
    points.sort_unstable();
    points.dedup();
    points
}

/// `balloc net_bench` — see the module docs.
pub struct NetBench;

impl Experiment for NetBench {
    fn id(&self) -> &'static str {
        "net_bench"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A11 (pipelining as b-Batch over TCP: Theorem 10.2, Corollary 10.4)"
    }

    fn description(&self) -> &'static str {
        "loopback TCP throughput + latency percentiles vs connections x pipeline depth"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[
            FlagSpec {
                name: "--connections",
                kind: FlagKind::U64,
                positive: true,
                default: "4",
                help: "maximum concurrent connections on the grid",
            },
            FlagSpec {
                name: "--pipeline",
                kind: FlagKind::U64,
                positive: true,
                default: "256",
                help: "maximum requests in flight per connection on the grid",
            },
            FlagSpec {
                name: "--batch",
                kind: FlagKind::U64,
                positive: true,
                default: "64",
                help: "server snapshot refresh period b (per-connection b-Batch)",
            },
            FlagSpec {
                name: "--shards",
                kind: FlagKind::U64,
                positive: true,
                default: "4",
                help: "shards in the authoritative store",
            },
            FlagSpec {
                name: "--d",
                kind: FlagKind::U64,
                positive: true,
                default: "2",
                help: "candidate bins per request (1 = One-Choice)",
            },
            FlagSpec {
                name: "--replay",
                kind: FlagKind::Switch,
                positive: false,
                default: "off",
                help: "replay-mode digest parity across the socket only (no throughput)",
            },
        ]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "A11", "TCP serving front-end", args);

        let max_conns = args.extras.u64("--connections") as usize;
        let max_pipeline = args.extras.u64("--pipeline") as usize;
        let batch = args.extras.u64("--batch").max(1);
        let shards = (args.extras.u64("--shards") as usize).min(args.n);
        let d = args.extras.u64("--d") as usize;
        let replay_only = args.extras.switch("--replay");
        if d > args.n {
            return Err(BenchError::Usage(format!(
                "--d must not exceed --n (got {d} candidates for {} bins)",
                args.n
            )));
        }

        let request = Request {
            d,
            noise: NoiseMode::Snapshot,
        };
        let staleness = Staleness::Batch { b: batch };
        let requests = args.m();
        let seed = experiment_seed("net_bench", args.seed);

        // In-process replay config matching a `clients`-connection replay
        // server bit for bit (the serving determinism contract).
        let replay_config = |clients: usize| ServeConfig {
            n: args.n,
            shards,
            workers: clients,
            requests,
            request,
            staleness,
            buffer_capacity: 4096,
            inflight: None,
            backend: BackendKind::Sharded,
            snapshot: SnapshotPath::Buffered,
            seed,
        };

        // Replay parity: serve the whole run through a replay-mode server
        // and check three digests agree — the load generator's (bins seen
        // on the wire), the server's (serve order), and the in-process
        // engine's.
        let parity_conns = max_conns.clamp(1, 3);
        let (gen_report, server_report) = drive_cell(
            args.n,
            shards,
            staleness,
            seed,
            ServerMode::Replay {
                clients: parity_conns,
            },
            &LoadGenConfig {
                addr: placeholder_addr(),
                connections: parity_conns,
                pipeline: max_pipeline.min(32),
                requests,
                request,
                // Arrival interleaving only — replay digests are
                // arrival-order invariant, so any stream works; keep it
                // disjoint from the decision seed domain regardless.
                seed: experiment_seed("net_bench/replay-arrivals", args.seed),
                collect_bins: true,
            },
        )?;
        let in_process = run_replay(&replay_config(parity_conns));
        let client_digest = gen_report
            .digest
            .ok_or_else(|| BenchError::Run("replay loadgen lost bins".into()))?;
        if client_digest != in_process.digest || server_report.digest != in_process.digest {
            return Err(BenchError::Run(format!(
                "replay digest parity violated across the socket: client {:016x}, \
                 server {:016x}, in-process {:016x}",
                client_digest, server_report.digest, in_process.digest
            )));
        }
        let replay = vec![ReplayParity {
            connections: parity_conns,
            requests,
            client_digest: format!("{client_digest:016x}"),
            server_digest: format!("{:016x}", server_report.digest),
            in_process_digest: format!("{:016x}", in_process.digest),
        }];
        let mut replay_table = TextTable::new(vec![
            "connections".into(),
            "client digest".into(),
            "server digest".into(),
            "in-process digest".into(),
        ]);
        replay_table.push_row(vec![
            parity_conns.to_string(),
            replay[0].client_digest.clone(),
            replay[0].server_digest.clone(),
            replay[0].in_process_digest.clone(),
        ]);

        // The in-process baseline for the overhead column: the replay
        // engine's serving step, one worker, no socket.
        let mut in_process_rps = 0.0;
        let mut cells = Vec::new();
        if !replay_only {
            in_process_rps = run_replay(&replay_config(1)).outcome.throughput_rps;

            let mut table = TextTable::new(vec![
                "connections".into(),
                "pipeline".into(),
                "throughput (req/s)".into(),
                "p50 (us)".into(),
                "p99 (us)".into(),
                "p999 (us)".into(),
                "overhead (us/req)".into(),
            ]);
            for &connections in &axis(max_conns, 2) {
                for &pipeline in &axis(max_pipeline, 16) {
                    let (report, server) = drive_cell(
                        args.n,
                        shards,
                        staleness,
                        seed,
                        ServerMode::Inline,
                        &LoadGenConfig {
                            addr: placeholder_addr(),
                            connections,
                            pipeline,
                            requests,
                            request,
                            seed: experiment_seed(
                                &format!("net_bench/{connections}x{pipeline}"),
                                args.seed,
                            ),
                            collect_bins: false,
                        },
                    )?;
                    // Exact conservation across the socket: every request
                    // the generator counts completed was served and is a
                    // ball in the final load vector (`balloc-net` asserts
                    // state.balls() == served internally).
                    if report.completed != server.served || report.errors != server.rejected {
                        return Err(BenchError::Run(format!(
                            "conservation violated at {connections}x{pipeline}: \
                             client saw {}/{} ok/err, server {}/{}",
                            report.completed, report.errors, server.served, server.rejected
                        )));
                    }
                    let oh = overhead_us(report.throughput_rps, in_process_rps);
                    table.push_row(vec![
                        connections.to_string(),
                        pipeline.to_string(),
                        format!("{:.0}", report.throughput_rps),
                        report.p50_us.to_string(),
                        report.p99_us.to_string(),
                        report.p999_us.to_string(),
                        fmt3(oh),
                    ]);
                    cells.push(NetCell {
                        connections,
                        pipeline,
                        throughput_rps: report.throughput_rps,
                        p50_us: report.p50_us,
                        p99_us: report.p99_us,
                        p999_us: report.p999_us,
                        completed: report.completed,
                        errors: report.errors,
                        overhead_us: oh,
                    });
                }
            }
            sink.table("loopback", table);
            sink.line(format!(
                "in-process single-worker baseline: {in_process_rps:.0} req/s; \
                 expected: throughput climbs with pipeline depth as syscalls amortize \
                 (the b-Batch ladder), then flattens at the decision kernel's rate."
            ));
        }

        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cpu_caveat = single_core_caveat(cpus);
        if !replay_only {
            if let Some(caveat) = &cpu_caveat {
                sink.line(caveat);
            }
        }

        sink.table("replay parity", replay_table);
        sink.line(
            "expected: all three digests identical — pipeline depth, packet \
             coalescing, and accept order cancel out of the decision stream.",
        );

        let artifact = NetBenchArtifact {
            scale: args.scale_line(),
            n: args.n,
            shards,
            batch,
            d,
            requests_per_cell: requests,
            in_process_rps,
            cpus,
            cpu_caveat,
            cells,
            replay,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}

/// A placeholder rewritten by [`drive_cell`] once the server has bound.
fn placeholder_addr() -> SocketAddr {
    "127.0.0.1:0".parse().expect("literal addr")
}

/// Binds a server on an ephemeral loopback port, runs it on its own
/// thread, drives the load generator against it, and joins.
fn drive_cell(
    n: usize,
    shards: usize,
    staleness: Staleness,
    seed: u64,
    mode: ServerMode,
    gen: &LoadGenConfig,
) -> Result<(balloc_net::LoadGenReport, ServerReport), BenchError> {
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            n,
            shards,
            staleness,
            seed,
            mode,
        },
    )
    .map_err(|e| BenchError::Run(format!("bind: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| BenchError::Run(format!("local_addr: {e}")))?;
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    let gen_cfg = LoadGenConfig { addr, ..*gen };
    let report = run_loadgen(&gen_cfg);
    shutdown.shutdown();
    let server_report = join
        .join()
        .map_err(|_| BenchError::Run("server thread panicked".into()))?
        .map_err(|e| BenchError::Run(format!("server: {e}")))?;
    let report = report.map_err(|e| BenchError::Run(format!("loadgen: {e}")))?;
    Ok((report, server_report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_spans_one_to_max_without_duplicates() {
        assert_eq!(axis(256, 16), vec![1, 16, 256]);
        assert_eq!(axis(4, 2), vec![1, 2, 4]);
        assert_eq!(axis(1, 16), vec![1]);
        assert_eq!(axis(16, 16), vec![1, 16]);
    }

    #[test]
    fn overhead_is_reciprocal_difference_clamped() {
        let oh = overhead_us(100_000.0, 200_000.0);
        assert!((oh - 5.0).abs() < 1e-9, "{oh}");
        assert_eq!(overhead_us(200_000.0, 100_000.0), 0.0);
        assert_eq!(overhead_us(0.0, 100_000.0), 0.0);
    }

    #[test]
    fn single_core_caveat_is_byte_pinned() {
        assert_eq!(
            single_core_caveat(1).as_deref(),
            Some(
                "loopback-shared-core: this host exposes 1 hardware thread, so the \
                 load generator and the reactor time-slice it; throughput is a lower \
                 bound and tail latencies include scheduler hops"
            )
        );
        assert_eq!(single_core_caveat(2), None);
    }
}
