//! `active_campaign`: the six active experiments, closed loop.
//!
//! One rep runs every active engine (all but the gateway service) at
//! `canonical_seed() ^ seed`. At seed 0 that is the paper
//! configuration, and the rendered artifacts must match
//! `tests/golden/` byte for byte; at any seed, every rep must render
//! the same artifacts as the first.

use crate::handshake::{self, Split, Substrate};
use crate::trace::Trace;
use crate::{stats, Args, Layered, Measured};
use iotls_repro::analysis::experiment_artifacts;
use iotls_repro::capture::json::Json;
use iotls_repro::core::{ExperimentCtx, ExperimentKind, ExperimentReport, Orchestrator, Report};
use iotls_repro::devices::Testbed;
use iotls_repro::simnet::sessions_driven;
use std::time::Instant;

/// The engines, with their span and per-layer metric names.
const ENGINES: [(ExperimentKind, &str, &str); 6] = [
    (
        ExperimentKind::InterceptionAudit,
        "core.interception_audit",
        "core.interception_audit.s",
    ),
    (
        ExperimentKind::RootProbe,
        "core.root_probe",
        "core.root_probe.s",
    ),
    (
        ExperimentKind::DowngradeProbe,
        "core.downgrade_probe",
        "core.downgrade_probe.s",
    ),
    (
        ExperimentKind::OldVersionScan,
        "core.old_version_scan",
        "core.old_version_scan.s",
    ),
    (
        ExperimentKind::FingerprintSurvey,
        "core.fingerprint_survey",
        "core.fingerprint_survey.s",
    ),
    (
        ExperimentKind::AuditService,
        "core.audit_service",
        "core.audit_service.s",
    ),
];
/// Seed of the labelled fingerprint database Figure 5 joins against
/// (as in the golden suite).
const FPDB_SEED: u64 = 0xDB;
/// Substrate handshakes pumped for the cost split.
const SUBSTRATE_HANDSHAKES: u64 = 64;
const REPLAY: u32 = 1_000;

struct Rep {
    wall_s: f64,
    reports: Vec<ExperimentReport>,
    sessions: u64,
}

fn rep(tb: &Testbed, base: &ExperimentCtx, seed: u64, tr: &mut Trace) -> Result<Rep, String> {
    let started = Instant::now();
    let sessions = sessions_driven();
    let root = tr.begin("campaign.rep");
    let mut reports = Vec::with_capacity(ENGINES.len());
    for (kind, span, _) in ENGINES {
        let ctx = base.with_seed(kind.canonical_seed() ^ seed);
        let s = tr.begin(span);
        let report = Orchestrator::new(tb, &ctx).run_one(kind);
        tr.end(s);
        reports.push(report.map_err(|e| e.to_string())?);
    }
    tr.end(root);
    Ok(Rep {
        wall_s: started.elapsed().as_secs_f64(),
        reports,
        sessions: sessions_driven() - sessions,
    })
}

/// Checks one rep's rendered artifacts: against the golden fixtures at
/// seed 0, and against the first rep's at every seed.
struct Artifacts {
    seed: u64,
    first: Option<Vec<(&'static str, String)>>,
}

impl Artifacts {
    fn check(&mut self, tb: &Testbed, reports: &[ExperimentReport]) -> Result<(), String> {
        let rendered: Vec<(&'static str, String)> = reports
            .iter()
            .flat_map(|r| experiment_artifacts(tb, r, FPDB_SEED))
            .collect();
        if self.seed == 0 {
            for (name, text) in &rendered {
                let path = format!("tests/golden/{name}.json");
                let want = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let got = Json::Obj(vec![
                    ("artifact".into(), Json::Str((*name).into())),
                    ("text".into(), Json::Str(text.clone())),
                ])
                .encode()
                    + "\n";
                if got != want {
                    return Err(format!("{name} differs from {path}"));
                }
            }
        }
        match &self.first {
            None => self.first = Some(rendered),
            Some(first) if *first != rendered => return Err("artifacts differ between reps".into()),
            Some(_) => {}
        }
        Ok(())
    }
}

fn base_ctx() -> ExperimentCtx {
    ExperimentCtx::builder().threads(1).metrics(true).build()
}

pub fn untraced(args: &Args, tb: &Testbed) -> Measured {
    let started = Instant::now();
    let base = base_ctx();
    let mut m = Measured {
        setup_s: vec![started.elapsed().as_secs_f64()],
        ..Measured::default()
    };
    let mut artifacts = Artifacts {
        seed: args.seed,
        first: None,
    };
    let (mut counters, mut sessions) = (String::new(), 0);
    m.repeat(args.seconds, |n| {
        let r = rep(tb, &base, args.seed, &mut Trace::off())?;
        artifacts.check(tb, &r.reports)?;
        if n == 0 {
            counters = base.metrics_snapshot().counters_json();
            sessions = r.sessions;
        }
        Ok(r.wall_s)
    });
    m.set_up_again(|_| drop(base_ctx()));
    m.counters = counters;
    m.work = sessions;
    m
}

pub fn traced(args: &Args, tb: &Testbed, home: bool, tr: &mut Trace) -> Layered {
    let mut out = Layered::default();
    let base = base_ctx();
    let mut artifacts = Artifacts {
        seed: args.seed,
        first: None,
    };
    let (mut sessions, mut cache) = (0, (0u64, 0u64));
    crate::traced_reps(&mut out, args.seconds, home, tr, "campaign.rep", |t| {
        let r = rep(tb, &base, args.seed, t)?;
        artifacts.check(tb, &r.reports)?;
        sessions = r.sessions;
        cache = r
            .reports
            .iter()
            .filter_map(|r| r.cache_stats())
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        Ok(r.wall_s)
    });
    if !out.errors.is_empty() {
        return out;
    }
    for (_, span, metric) in ENGINES {
        out.put(metric, stats::median(&tr.per_rep(span)));
    }
    out.put("core.campaign.sessions", sessions as f64);
    out.put(
        "x509.cache.hit_rate",
        cache.0 as f64 / (cache.0 + cache.1) as f64,
    );

    tr.set_rep(REPLAY);
    let mut roster = Split::default();
    let mut substrate = Split::default();
    let pumped = handshake::roster(tb, args.seed)
        .into_iter()
        .try_for_each(|e| roster.add(e, tr))
        .and_then(|()| {
            let pki = Substrate::new();
            (0..SUBSTRATE_HANDSHAKES).try_for_each(|n| substrate.add(pki.endpoints(n), tr))
        });
    if let Err(e) = pumped {
        out.errors.push(e);
        return out;
    }
    out.put("tls.handshake.endpoint_us", roster.endpoint_us());
    out.put("tls.handshake.transport_us", roster.transport_us());
    out.put("tls.handshake.crypto_share", roster.crypto_share());
    out.put("tls.handshake.message_us", roster.message_us());
    out.put("x509.validate_chain_us", roster.validate_us());
    out.put("tls.substrate.endpoint_us", substrate.endpoint_us());
    out.put("tls.substrate.crypto_share", substrate.crypto_share());
    out
}
