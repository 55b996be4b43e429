//! `gateway_clean` and `gateway_chaos`: the resident audit gateway.
//!
//! The accept loop is open loop in virtual time (a fixed arrival
//! schedule per tick, whatever completes), and `Gateway::run` executes
//! it as one batch on the wall clock, so a rep's wall time is the cost
//! of serving that offered load. `gateway_clean` is the zero-allocation
//! replay hot path at one thread; `gateway_chaos` adds a 2% uniform
//! fault plan and the audit + drift-detection chain on every endpoint,
//! at two threads.

use crate::handshake;
use crate::trace::Trace;
use crate::{allocations, stats, two_threads, Args, Layered, Measured, Workload};
use iotls_repro::core::{
    AuditObserver, ChainFactory, DriftDetector, ExperimentCtx, FlowBaseline, Gateway,
    GatewayConfig, GatewayReport,
};
use iotls_repro::devices::Testbed;
use iotls_repro::simnet::{
    ordered_map_with_state, replay_flow_chained, replay_flow_with, AcceptLoop, FaultPlan,
    ReplayScratch, SessionFaults,
};
use iotls_repro::tls::middleware::{Chain, Flow};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seed the gateway's golden fixture is pinned to; workload seeds are
/// XORed into it.
const CANONICAL_SEED: u64 = 0x6A7E;
/// Fault rate of `gateway_chaos`, per mille per fault kind.
const CHAOS_FAULTS_PM: u16 = 20;
/// Every how many ticks the replays sample the arrival schedule.
const SAMPLE_EVERY: u64 = 10;
const REPLAY: u32 = 1_000;

/// One gateway workload's shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    chaos: bool,
    threads: usize,
    config: GatewayConfig,
}

impl Shape {
    /// The shape of `workload`; workloads of other families trace the
    /// chaos shape, which reaches every gateway layer.
    fn of(workload: Workload) -> Shape {
        let chaos = workload != Workload::GatewayClean;
        Shape {
            chaos,
            threads: if chaos { two_threads() } else { 1 },
            // Sized so admission never refuses a session: the bench
            // measures session throughput, not load shedding.
            config: GatewayConfig {
                ticks: if chaos { 130 } else { 520 },
                load: 2048,
                load_spread: 64,
                queue_capacity: 8192,
                pool_capacity: 4096,
                bucket_capacity: 4096,
                bucket_refill: 2048,
                ..GatewayConfig::default()
            },
        }
    }

    fn ctx(&self, seed: u64) -> ExperimentCtx {
        let seed = CANONICAL_SEED ^ seed;
        let plan = if self.chaos {
            FaultPlan::uniform(seed, CHAOS_FAULTS_PM)
        } else {
            FaultPlan::none()
        };
        ExperimentCtx::builder()
            .seed(seed)
            .plan(plan)
            .threads(self.threads)
            .metrics(true)
            .build()
    }

    /// Records the roster tapes and, for chaos, registers the chains.
    fn gateway<'a>(&self, tb: &'a Testbed, ctx: &'a ExperimentCtx) -> Gateway<'a> {
        let mut gw = Gateway::new(tb, ctx, self.config);
        if self.chaos {
            gw.register_chains(chain_factory(gw.endpoint_baselines()));
        }
        gw
    }

    /// Checks a report: conservation, no panics, every session
    /// established on the clean shape, and the same report every rep.
    fn check(&self, report: &GatewayReport, first: &mut Option<String>) -> Result<(), String> {
        if !report.invariant_holds() {
            return Err("admitted != completed + rejected + aborted".into());
        }
        if report.panicked != 0 {
            return Err(format!("{} sessions panicked", report.panicked));
        }
        if !self.chaos && report.established != report.admitted {
            return Err(format!(
                "{} of {} sessions established on the clean shape",
                report.established, report.admitted
            ));
        }
        let rendered = report.render();
        match first {
            None => *first = Some(rendered),
            Some(f) if *f != rendered => return Err("gateway report differs between reps".into()),
            Some(_) => {}
        }
        Ok(())
    }
}

/// The production chain complement: the audit observer plus the drift
/// detector enrolled with the endpoint's roster baselines.
fn chain_factory(baselines: BTreeMap<String, Vec<FlowBaseline>>) -> ChainFactory {
    Box::new(move |endpoint| {
        let enrolled = baselines.get(endpoint).cloned().unwrap_or_default();
        Some(
            Chain::new()
                .with(Box::new(AuditObserver::default()))
                .with(Box::new(DriftDetector::new(&enrolled))),
        )
    })
}

fn run(gw: &Gateway<'_>, tr: &mut Trace) -> (f64, GatewayReport) {
    let started = Instant::now();
    let root = tr.begin("gateway.rep");
    let s = tr.begin("core.gateway.run");
    let report = gw.run();
    tr.end(s);
    tr.end(root);
    (started.elapsed().as_secs_f64(), report)
}

/// Share of admitted sessions neither established nor intercepted by a
/// chain. Deterministic per seed: the fault plan fails the same
/// sessions every rep.
fn failed_share(report: &GatewayReport) -> f64 {
    let intercepted = report
        .counters
        .iter()
        .find(|(k, _)| k == "gateway.middleware.sessions.intercepted")
        .map_or(0, |(_, v)| *v);
    1.0 - (report.established + intercepted) as f64 / report.admitted as f64
}

pub fn untraced(args: &Args, tb: &Testbed) -> Measured {
    let started = Instant::now();
    let shape = Shape::of(args.workload);
    let ctx = shape.ctx(args.seed);
    let gw = shape.gateway(tb, &ctx);
    let mut m = Measured {
        setup_s: vec![started.elapsed().as_secs_f64()],
        ..Measured::default()
    };
    let (mut first, mut counters, mut sessions, mut failed) = (None, String::new(), 0, 0.0);
    m.repeat(args.seconds, |n| {
        let (wall, report) = run(&gw, &mut Trace::off());
        shape.check(&report, &mut first)?;
        if n == 0 {
            counters = ctx.metrics_snapshot().counters_json();
            sessions = report.completed;
            failed = failed_share(&report);
        }
        Ok(wall)
    });
    m.set_up_again(|tb| {
        let ctx = shape.ctx(args.seed);
        drop(shape.gateway(tb, &ctx));
    });
    m.counters = counters;
    m.work = sessions;
    m.failed_share = failed;
    m
}

pub fn traced(args: &Args, tb: &Testbed, home: bool, tr: &mut Trace) -> Layered {
    let mut out = Layered::default();
    let shape = Shape::of(if home {
        args.workload
    } else {
        Workload::GatewayChaos
    });
    let ctx = shape.ctx(args.seed);
    let span = tr.begin("core.gateway.record");
    let gw = shape.gateway(tb, &ctx);
    tr.end(span);
    out.put(
        "core.gateway.record_ms",
        tr.total("core.gateway.record") * 1e3,
    );

    let mut first = None;
    let mut last = None;
    crate::traced_reps(&mut out, args.seconds, home, tr, "gateway.rep", |t| {
        let (wall, report) = run(&gw, t);
        shape.check(&report, &mut first)?;
        last = Some(report);
        Ok(wall)
    });
    let Some(report) = last.filter(|_| out.errors.is_empty()) else {
        return out;
    };
    out.put("core.gateway.failed_share", failed_share(&report));
    tr.set_rep(REPLAY);
    if let Err(e) = replay_layers(tb, &ctx, &gw, &shape, tr, &mut out) {
        out.errors.push(e);
    }
    out
}

/// Replays the layers behind `Gateway::run` on its own inputs: the
/// accept loop over every tick, then, on every `SAMPLE_EVERY`-th
/// tick's arrivals, fault draws, clean and chained tape replays; plus
/// the chain feed, chain construction and the worker fan-out. What
/// these do not cover of a run's wall time is the gateway's own
/// admission and settlement work.
fn replay_layers(
    tb: &Testbed,
    ctx: &ExperimentCtx,
    gw: &Gateway<'_>,
    shape: &Shape,
    tr: &mut Trace,
    out: &mut Layered,
) -> Result<(), String> {
    let cfg = shape.config;
    let tapes = handshake::tapes(tb, ctx.seed());
    let mut rebuilt: Vec<String> = tapes
        .iter()
        .map(|(_, _, flow)| format!("{:?}", FlowBaseline::of(flow)))
        .collect();
    let mut recorded: Vec<String> = gw
        .endpoint_baselines()
        .into_values()
        .flatten()
        .map(|b| format!("{b:?}"))
        .collect();
    rebuilt.sort();
    recorded.sort();
    if rebuilt != recorded {
        return Err("rebuilt roster tapes differ from the gateway's".into());
    }

    let accept = AcceptLoop::new(ctx.seed(), cfg.load, cfg.load_spread);
    let mut sampled: Vec<Vec<usize>> = Vec::new();
    let mut arrivals = 0u64;
    let s = tr.begin("simnet.mux.accept");
    for tick in 0..cfg.ticks {
        let batch = accept.arrivals(tick, tapes.len());
        arrivals += batch.len() as u64;
        if tick % SAMPLE_EVERY == 0 {
            sampled.push(batch);
        }
    }
    tr.end(s);
    let accept_s = tr.total("simnet.mux.accept");
    out.put(
        "simnet.mux.accept_us_per_tick",
        accept_s * 1e6 / cfg.ticks as f64,
    );
    let sessions: u64 = sampled.iter().map(|b| b.len() as u64).sum();
    let scale = arrivals as f64 / sessions as f64;

    let mut scratch = ReplayScratch::new();
    for (_, _, flow) in &tapes {
        replay_flow_with(
            flow,
            SessionFaults::none(),
            cfg.deadline_rounds,
            &mut scratch,
        );
    }
    let allocs = allocations();
    for batch in &sampled {
        let s = tr.begin("simnet.mux.replay");
        for &i in batch {
            std::hint::black_box(replay_flow_with(
                &tapes[i].2,
                SessionFaults::none(),
                cfg.deadline_rounds,
                &mut scratch,
            ));
        }
        tr.end(s);
    }
    let replay_allocs = allocations() - allocs;
    let replay_s = tr.total("simnet.mux.replay");
    out.put("simnet.mux.replay_ns", replay_s * 1e9 / sessions as f64);
    out.put(
        "simnet.mux.allocs_per_session",
        replay_allocs as f64 / sessions as f64,
    );

    let plan = FaultPlan::uniform(ctx.seed(), CHAOS_FAULTS_PM);
    let mut seq = 0u64;
    for batch in &sampled {
        let s = tr.begin("simnet.fault.session_faults");
        for &i in batch {
            let (device, endpoint, _) = &tapes[i];
            let key = format!("gw/{device}/{endpoint}/{seq}/try0");
            std::hint::black_box(plan.session_faults(&key));
            seq += 1;
        }
        tr.end(s);
    }
    let faults_s = tr.total("simnet.fault.session_faults");
    out.put(
        "simnet.fault.session_faults_ns",
        faults_s * 1e9 / sessions as f64,
    );

    let factory = chain_factory(gw.endpoint_baselines());
    let mut chains: BTreeMap<&str, Chain> = BTreeMap::new();
    for (_, endpoint, _) in &tapes {
        if !chains.contains_key(endpoint.as_str()) {
            let chain = factory(endpoint).ok_or("factory built no chain")?;
            chains.insert(endpoint.as_str(), chain);
        }
    }
    for batch in &sampled {
        let s = tr.begin("simnet.mux.replay_chained");
        for &i in batch {
            let (_, endpoint, flow) = &tapes[i];
            let chain = chains
                .get_mut(endpoint.as_str())
                .ok_or("no chain for endpoint")?;
            std::hint::black_box(replay_flow_chained(
                flow,
                SessionFaults::none(),
                cfg.deadline_rounds,
                &mut scratch,
                chain,
            ));
            std::hint::black_box(chain.take_stats());
        }
        tr.end(s);
    }
    let chained_s = tr.total("simnet.mux.replay_chained");
    out.put(
        "simnet.mux.replay_chained_ns",
        chained_s * 1e9 / sessions as f64,
    );

    let mut fed = 0usize;
    let s = tr.begin("tls.middleware.feed");
    for _ in 0..SAMPLE_EVERY {
        for (_, endpoint, flow) in &tapes {
            let chain = chains
                .get_mut(endpoint.as_str())
                .ok_or("no chain for endpoint")?;
            chain.begin_session();
            for round in &flow.rounds {
                chain.feed(Flow::ClientToServer, &round.c2s);
                chain.feed(Flow::ServerToClient, &round.s2c);
            }
            chain.close();
            std::hint::black_box(chain.take_stats());
            fed += flow.total_bytes() as usize;
        }
    }
    tr.end(s);
    out.put(
        "tls.middleware.feed_ns_per_kb",
        tr.total("tls.middleware.feed") * 1e9 / (fed as f64 / 1024.0),
    );

    let endpoints: Vec<&str> = chains.keys().copied().collect();
    let s = tr.begin("tls.middleware.chain_build");
    for _ in 0..SAMPLE_EVERY {
        let built: Vec<Option<Chain>> = endpoints.iter().map(|e| factory(e)).collect();
        std::hint::black_box(built);
    }
    tr.end(s);
    out.put(
        "tls.middleware.chain_build_us",
        tr.total("tls.middleware.chain_build") * 1e6 / SAMPLE_EVERY as f64,
    );

    let batch: Vec<u64> = (0..u64::from(cfg.load)).collect();
    let batches = 100;
    let s = tr.begin("simnet.par.fanout");
    for _ in 0..batches {
        std::hint::black_box(ordered_map_with_state(
            two_threads(),
            batch.clone(),
            || (),
            |_, t| t,
        ));
    }
    tr.end(s);
    let fanout_s = tr.total("simnet.par.fanout") / f64::from(batches);
    out.put("simnet.par.fanout_us_per_batch", fanout_s * 1e6);

    // Wall a run would spend inside the replayed layers: accept loop
    // on the tick thread, per-session work split over the workers,
    // one fan-out per tick when there is more than one worker.
    let per_session = if shape.chaos {
        faults_s + chained_s
    } else {
        replay_s
    };
    let mut covered = accept_s + per_session * scale / shape.threads as f64;
    if shape.threads > 1 {
        covered += fanout_s * (cfg.ticks + cfg.drain_grace) as f64;
    }
    let run_s = stats::median(&tr.per_rep("core.gateway.run"));
    out.put("core.gateway.unattributed_share", 1.0 - covered / run_s);
    Ok(())
}
