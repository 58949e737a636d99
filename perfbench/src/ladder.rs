//! The per-layer ladder of a traced run: each rung drives one layer
//! through its public functions at the workloads' shapes, with spans
//! around the calls, and reports its cost per unit of work.

use std::time::Instant;

use balloc_core::Rng;
use balloc_net::wire::{encode, Frame, FrameDecoder};
use balloc_serve::{
    run_resilient, DirectCluster, FaultPlan, InFlightLimitLayer, Layer, LoadShedLayer, LoadSink,
    Permits, Policy, RateLimitConfig, Request, ResilienceConfig, RetryConfig, ServeClock,
    ServeError, Service, ShedCounter, SnapshotAllocator, SnapshotService, Staleness,
};

use crate::engines;
use crate::trace::{span, Tracer};
use crate::util::median;
use crate::{sweep, tcp, Metrics};

/// A store wrapper recording a `serve.refresh` span around every refresh
/// (nested under whatever span the caller has open).
pub struct TracedSink<'t, K> {
    pub inner: K,
    pub tracer: Option<&'t Tracer>,
}

impl<K: LoadSink> LoadSink for TracedSink<'_, K> {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        self.inner.apply(bin)
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        span(self.tracer, "serve.refresh", 0, || {
            self.inner.refresh(snapshot)
        })
    }
}

/// Median over `reps` timings of `f`, in ns per `units`.
fn ns_per(reps: usize, units: u64, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            // balloc-lint: allow(L002): benchmark timing; no decision or digest reads it.
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&times)
}

/// `wire.encode` and `FrameDecoder` ns/frame for `ALLOC` and `RESP_BIN`.
pub fn wire(m: &mut Metrics, tracer: &Tracer) {
    let req = Request::two_choice();
    wire_frame(
        m,
        tracer,
        ["net.wire_encode_alloc_ns", "net.wire_decode_alloc_ns"],
        ["wire.encode_alloc", "wire.decode_alloc"],
        |i| Frame::alloc(i, &req),
    );
    wire_frame(
        m,
        tracer,
        ["net.wire_encode_resp_ns", "net.wire_decode_resp_ns"],
        ["wire.encode_resp", "wire.decode_resp"],
        |i| Frame::RespBin {
            req_id: i,
            bin: i % tcp::N as u64,
            epoch: 1,
        },
    );
}

fn wire_frame(
    m: &mut Metrics,
    tracer: &Tracer,
    [enc_name, dec_name]: [&str; 2],
    [enc_span, dec_span]: [&'static str; 2],
    make: impl Fn(u64) -> Frame,
) {
    const FRAMES: u64 = 4_096;
    const REPS: usize = 64;
    let mut buf = Vec::with_capacity(64 * FRAMES as usize);
    let mut rep = 0u64;
    let enc = ns_per(REPS, FRAMES, || {
        buf.clear();
        span(Some(tracer), enc_span, rep, || {
            for i in 0..FRAMES {
                encode(&make(i + 1), &mut buf);
            }
        });
        rep += 1;
    });
    let mut decoded = 0u64;
    let dec = ns_per(REPS, FRAMES, || {
        let mut decoder = FrameDecoder::new();
        span(Some(tracer), dec_span, rep, || {
            decoder.extend(&buf);
            while let Ok(Some(frame)) = decoder.next_frame() {
                decoded += u64::from(std::hint::black_box(frame) != Frame::Shutdown);
            }
        });
        rep += 1;
    });
    assert_eq!(decoded, FRAMES * REPS as u64, "every encoded frame decodes");
    m.push(enc_name, enc, "ns");
    m.push(dec_name, dec, "ns");
}

/// Decision state, store and leaf-service costs at the TCP shape (b = 64)
/// and the per-request stack at the engine shape (b = n).
pub fn serve(m: &mut Metrics, tracer: &Tracer, seed: u64) {
    let req = Request::two_choice();
    let n = tcp::N;

    // call_block over a traced store: blocks of 64 with refresh children.
    const BLOCKS: u64 = 20_000;
    let before = tracer.totals();
    let _ = tcp::replay(seed, BLOCKS * tcp::PIPELINE, Some(tracer));
    let after = tracer.totals();
    let delta = |name: &str| {
        let (a, b) = (
            after.get(name).copied().unwrap_or_default(),
            before.get(name).copied().unwrap_or_default(),
        );
        (
            a.count - b.count,
            a.total_ns - b.total_ns,
            a.self_ns - b.self_ns,
        )
    };
    let (_, block_ns, block_self_ns) = delta("serve.call_block");
    let (refreshes, refresh_ns, _) = delta("serve.refresh");
    let requests = (BLOCKS * tcp::PIPELINE) as f64;
    m.push("serve.call_block_ns", block_ns as f64 / requests, "ns");
    m.push(
        "serve.call_block_self_ns",
        block_self_ns as f64 / requests,
        "ns",
    );
    m.push(
        "serve.refresh_ns",
        refresh_ns as f64 / refreshes.max(1) as f64,
        "ns",
    );
    m.push(
        "serve.refresh_share",
        refresh_ns as f64 / block_ns.max(1) as f64,
        "ratio",
    );

    // decide_run in runs of 64 against a primed snapshot.
    let mut rng = Rng::from_seed(seed);
    let mut alloc = SnapshotAllocator::new(n, Staleness::Batch { b: u64::MAX }, seed);
    for load in alloc.snapshot_mut() {
        *load = 100 + rng.below(8);
    }
    alloc.note_refresh(0);
    const RUNS: u64 = 4_096;
    let mut out = Vec::with_capacity(64);
    let mut rep = 0u64;
    let decide = ns_per(16, RUNS * 64, || {
        span(Some(tracer), "serve.decide_run", rep, || {
            for _ in 0..RUNS {
                out.clear();
                alloc.decide_run(&req, 64, &mut out);
            }
        });
        rep += 1;
    });
    m.push("serve.decide_run_ns", decide, "ns");

    // apply on the direct store, random bins.
    let bins: Vec<usize> = (0..65_536).map(|_| rng.below_usize(n)).collect();
    let mut store = DirectCluster::new(n, tcp::SHARDS);
    let apply = ns_per(16, bins.len() as u64, || {
        span(Some(tracer), "serve.apply", rep, || {
            for &bin in &bins {
                store.apply(bin).expect("a direct store never rejects");
            }
        });
        rep += 1;
    });
    m.push("serve.apply_ns", apply, "ns");

    // One request through LoadShed(InFlightLimit(SnapshotService)) at b = n.
    let leaf = SnapshotService::new(
        SnapshotAllocator::new(n, Staleness::Batch { b: n as u64 }, seed),
        DirectCluster::new(n, engines::SHARDS),
        ServeClock::new(),
    );
    let limited = InFlightLimitLayer::new(Permits::new(1)).layer(leaf);
    let mut stack = LoadShedLayer::new(ShedCounter::new()).layer(limited);
    const CALLS: u64 = 65_536;
    let call = ns_per(16, CALLS, || {
        span(Some(tracer), "serve.call", rep, || {
            for _ in 0..CALLS {
                stack
                    .call(req)
                    .expect("an unlimited direct stack never sheds");
            }
        });
        rep += 1;
    });
    m.push("serve.call_ns", call, "ns");
}

/// Engine ns/request, exact counts of one pass, and the marginal cost of
/// each middleware layer on a clean backend.
pub fn engine(m: &mut Metrics, tracer: &Tracer, seed: u64) {
    let set = engines::engine_set(seed);
    let pass = engines::run_pass(&set, 0, Some(tracer));
    let per_req = |s: f64| s * 1e9 / engines::REQUESTS as f64;
    m.push("serve.replay_ns", per_req(pass.call_s[0]), "ns");
    m.push("serve.resilient_ns", per_req(pass.call_s[1]), "ns");
    m.push("serve.churn_ns", per_req(pass.call_s[2]), "ns");
    let (r, s, c) = (
        &pass.replay.outcome,
        &pass.resilient.outcome,
        &pass.churn.outcome,
    );
    m.push(
        "serve.refreshes",
        (r.refreshes + s.refreshes + c.refreshes) as f64,
        "count",
    );
    m.push("serve.retries", s.retries as f64, "count");
    m.push("serve.hedged", s.hedged as f64, "count");
    m.push("serve.breaker_trips", s.breaker_trips as f64, "count");
    m.push("serve.timed_out", s.timed_out as f64, "count");
    m.push("serve.shed", (s.shed + c.shed) as f64, "count");
    m.push("serve.migrated", c.migrated as f64, "count");
    m.push("serve.departures", c.departures as f64, "count");
    m.push("serve.vlatency_p99_ticks", s.latency_p99 as f64, "ticks");

    let base = Policy::default();
    let layers: [(&str, Policy); 6] = [
        ("serve.mw_base_ns", base),
        (
            "serve.mw_timeout_ns",
            Policy {
                timeout: Some(24),
                ..base
            },
        ),
        (
            "serve.mw_retry_ns",
            Policy {
                retry: Some(RetryConfig::default()),
                ..base
            },
        ),
        (
            "serve.mw_rate_ns",
            Policy {
                rate: Some(RateLimitConfig {
                    permits: 1_000,
                    period: 1,
                    burst: 1_000,
                }),
                ..base
            },
        ),
        (
            "serve.mw_hedge_ns",
            Policy {
                hedge: Some(balloc_serve::HedgeConfig::default()),
                ..base
            },
        ),
        (
            "serve.mw_breaker_ns",
            Policy {
                breaker: Some(balloc_serve::BreakerConfig::default()),
                ..base
            },
        ),
    ];
    let mut base_ns = 0.0;
    for (i, (name, policy)) in layers.iter().enumerate() {
        let cfg = ResilienceConfig {
            faults: FaultPlan::clean(1),
            policy: *policy,
            ..set.resilient.clone()
        };
        let ns = ns_per(5, engines::REQUESTS, || {
            span(Some(tracer), "engine.resilient_clean", i as u64, || {
                std::hint::black_box(run_resilient(&cfg));
            });
        });
        if i == 0 {
            base_ns = ns;
            m.push(name, ns, "ns");
        } else {
            m.push(name, ns - base_ns, "ns");
        }
    }
}

/// Single-thread kernel ns/ball of every sweep cell, and the pool's
/// efficiency on one sweep of the same cells.
pub fn kernels(m: &mut Metrics, tracer: &Tracer, seed: u64) {
    let reps: Vec<Vec<(String, f64, f64)>> = (0..3)
        .map(|_| sweep::cell_costs(seed, Some(tracer)))
        .collect();
    let mut busy_s = 0.0;
    for (i, (name, _, _)) in reps[0].iter().enumerate() {
        let ns: Vec<f64> = reps.iter().map(|r| r[i].1).collect();
        let secs: Vec<f64> = reps.iter().map(|r| r[i].2).collect();
        m.push(name, median(&ns), "ns");
        busy_s += median(&secs) * sweep::RUNS as f64;
    }
    let walls: Vec<f64> = (0..5)
        .map(|i| {
            crate::util::timed(|| sweep::run_sweep(sweep::sweep_seed(seed, 0), i, Some(tracer))).0
        })
        .collect();
    let wall_s = median(&walls);
    m.push("sim.busy_s", busy_s, "s");
    m.push("sim.wall_s", wall_s, "s");
    m.push(
        "workpool.efficiency",
        busy_s / (sweep::THREADS as f64 * wall_s),
        "ratio",
    );
}

/// Reactor and client costs per request from a traced TCP session.
pub fn net(m: &mut Metrics, s: &tcp::Session, tracer: &Tracer) {
    let req = s.timed_requests as f64;
    let wall_ns = s.wall_s * 1e9;
    let server_cpu = s.server_cpu_ns as f64 / req;
    let client_cpu = s.client_cpu_ns as f64 / req;
    m.push("net.wall_ns", wall_ns / req, "ns");
    m.push("net.server_cpu_ns", server_cpu, "ns");
    m.push("net.server_wait_ns", s.server_wait_ns as f64 / req, "ns");
    m.push("net.client_cpu_ns", client_cpu, "ns");
    m.push("net.server_util", s.server_cpu_ns as f64 / wall_ns, "ratio");
    m.push("net.client_util", s.client_cpu_ns as f64 / wall_ns, "ratio");
    m.push(
        "net.handoff_ns",
        wall_ns / req - server_cpu - client_cpu,
        "ns",
    );
    let p99: Vec<f64> = s.latency.windows.iter().map(|w| w.p99_ns / 1e3).collect();
    m.push("net.latency_p99_us", median(&p99), "us");
    m.push(
        "net.replies_per_read",
        s.frames as f64 / s.reads.max(1) as f64,
        "count",
    );
    let totals = tracer.totals();
    for (name, span_name) in [
        ("net.client_send_ns", "client.send"),
        ("net.client_read_ns", "client.read"),
        ("net.client_decode_ns", "client.decode"),
    ] {
        let t = totals.get(span_name).copied().unwrap_or_default();
        m.push(name, t.total_ns as f64 / req, "ns");
    }
    let serve = m.get("serve.call_block_ns")
        + m.get("net.wire_decode_alloc_ns")
        + m.get("net.wire_encode_resp_ns");
    m.push("net.residual_ns", server_cpu - serve, "ns");
}
