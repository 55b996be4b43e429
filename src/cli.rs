//! Shared command-line plumbing for the runnable examples.
//!
//! Every example accepts the same flags and resolves them into one
//! [`ExperimentCtx`], so the knobs PRs 1–4 threaded through the
//! engines (fault plans, thread pools, metrics) are reachable from
//! every binary without per-example flag parsing:
//!
//! * `--seed N` — override the example's canonical seed (decimal or
//!   `0x`-prefixed hex);
//! * `--threads N` — worker-count override (beats `IOTLS_THREADS`);
//! * `--faults PM` — inject a uniform chaos plan at `PM` per-mille;
//! * `--metrics` — force the observability registry live even without
//!   an `IOTLS_METRICS` sink path.
//!
//! Gateway examples additionally understand:
//!
//! * `--ticks N` — accept-loop ticks before shutdown begins;
//! * `--load N` — mean session arrivals per tick;
//! * `--drain-at N` — begin draining at tick `N` (mid-stream
//!   shutdown; the default runs the full soak);
//! * `--middleware` — register the audit + drift-detection middleware
//!   chain on every endpoint (DESIGN.md §17) and report the
//!   `gateway.middleware.*` counters.
//!
//! Passive-pipeline examples additionally understand the store flags:
//!
//! * `--store PATH` — persist the generated columnar dataset as a
//!   segmented store directory at `PATH`;
//! * `--from-store PATH` — skip generation and analyze the segmented
//!   store directory at `PATH` instead (frames stream off disk in
//!   bounded memory);
//! * `--append` — extend the store at `--store PATH` with this run's
//!   dataset as a new batch instead of recreating it (requires
//!   `--store`).
//!
//! Environment knobs (`IOTLS_THREADS`, `IOTLS_METRICS`) still apply
//! through [`ExperimentCtx`]'s builder; flags win where both are set.

use crate::core::{ExperimentCtx, FaultStats, GatewayConfig};
use crate::simnet::FaultPlan;

/// Parsed example flags; see the module docs for the grammar.
#[derive(Debug, Clone, Default)]
pub struct ExampleArgs {
    /// `--seed` override, if given.
    pub seed: Option<u64>,
    /// `--threads` override, if given.
    pub threads: Option<usize>,
    /// `--faults` per-mille rate, if given.
    pub faults: Option<u16>,
    /// `--metrics` was passed.
    pub metrics: bool,
    /// `--ticks` override for gateway soaks, if given.
    pub ticks: Option<u64>,
    /// `--load` override for gateway soaks, if given.
    pub load: Option<u32>,
    /// `--drain-at` shutdown tick for gateway soaks, if given.
    pub drain_at: Option<u64>,
    /// `--middleware` was passed (register per-endpoint chains).
    pub middleware: bool,
    /// `--store` output directory for the segmented store, if given.
    pub store: Option<String>,
    /// `--from-store` store directory replacing generation, if given.
    pub from_store: Option<String>,
    /// `--append` was passed (extend the `--store` store directory).
    pub append: bool,
}

impl ExampleArgs {
    /// Parses `std::env::args()`, exiting with a usage message on an
    /// unknown or malformed flag.
    pub fn parse() -> ExampleArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_from(&argv) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--seed N] [--threads N] [--faults PM] [--metrics] \
                     [--ticks N] [--load N] [--drain-at N] [--middleware] \
                     [--store PATH] [--from-store PATH] [--append]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Flag parsing proper, separated from process exit for testing.
    pub fn parse_from(argv: &[String]) -> Result<ExampleArgs, String> {
        let mut args = ExampleArgs::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--seed" => {
                    let v = value("--seed")?;
                    args.seed = Some(parse_u64(v).ok_or_else(|| format!("bad --seed {v:?}"))?);
                }
                "--threads" => {
                    let v = value("--threads")?;
                    args.threads = Some(
                        v.parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad --threads {v:?}"))?,
                    );
                }
                "--faults" => {
                    let v = value("--faults")?;
                    args.faults = Some(
                        v.parse::<u16>()
                            .ok()
                            .filter(|&pm| pm <= 1000)
                            .ok_or_else(|| format!("bad --faults {v:?} (per-mille, 0-1000)"))?,
                    );
                }
                "--metrics" => args.metrics = true,
                "--ticks" => {
                    let v = value("--ticks")?;
                    args.ticks = Some(
                        v.parse::<u64>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad --ticks {v:?}"))?,
                    );
                }
                "--load" => {
                    let v = value("--load")?;
                    args.load = Some(
                        v.parse::<u32>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad --load {v:?}"))?,
                    );
                }
                "--drain-at" => {
                    let v = value("--drain-at")?;
                    args.drain_at = Some(
                        v.parse::<u64>()
                            .map_err(|_| format!("bad --drain-at {v:?}"))?,
                    );
                }
                "--middleware" => args.middleware = true,
                "--store" => args.store = Some(value("--store")?.clone()),
                "--from-store" => args.from_store = Some(value("--from-store")?.clone()),
                "--append" => args.append = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if args.append && args.store.is_none() {
            return Err("--append requires --store PATH (the store directory to extend)".into());
        }
        Ok(args)
    }

    /// Builds the example's [`ExperimentCtx`]: `default_seed` unless
    /// `--seed` was given, flags layered over the env-resolved knobs.
    /// Env values the builder rejected are echoed to stderr.
    pub fn ctx(&self, default_seed: u64) -> ExperimentCtx {
        let seed = self.seed.unwrap_or(default_seed);
        let mut b = ExperimentCtx::builder().seed(seed);
        if let Some(t) = self.threads {
            b = b.threads(t);
        }
        if let Some(pm) = self.faults {
            b = b.plan(FaultPlan::uniform(seed, pm));
        }
        if self.metrics {
            b = b.metrics(true);
        }
        let ctx = b.build();
        for w in ctx.warnings() {
            eprintln!("warning: {w}");
        }
        ctx
    }

    /// Layers the gateway flags over a base [`GatewayConfig`]:
    /// `--ticks` and `--load` replace the base values, `--drain-at`
    /// schedules a mid-stream shutdown.
    pub fn gateway_config(&self, base: GatewayConfig) -> GatewayConfig {
        GatewayConfig {
            ticks: self.ticks.unwrap_or(base.ticks),
            load: self.load.unwrap_or(base.load),
            drain_at: self.drain_at.or(base.drain_at),
            ..base
        }
    }

    /// End-of-run housekeeping: writes the `IOTLS_METRICS` sink if
    /// one is configured and says so on stderr.
    pub fn finish(&self, ctx: &ExperimentCtx) {
        if let Some(path) = ctx.metrics_sink() {
            ctx.write_metrics_sink().expect("write IOTLS_METRICS file");
            eprintln!("metrics written to {path}");
        }
    }
}

/// Parses a decimal or `0x`-prefixed hex integer.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// One-line human rendering of a [`FaultStats`] — the examples report
/// injected-fault counters even on clean runs (all zeros).
pub fn fault_stats_line(stats: &FaultStats) -> String {
    format!(
        "faults injected: {} (resets {}, garbles {}, stalls {}, power cycles {}, \
         dns failures {}); retries {} inline / {} reconnects; \
         {} recovered, {} unrecovered",
        stats.injected_total(),
        stats.resets,
        stats.garbles,
        stats.stalls,
        stats.power_cycles,
        stats.dns_failures,
        stats.inline_retries,
        stats.reconnects,
        stats.recovered,
        stats.unrecovered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn parses_every_flag() {
        let args = ExampleArgs::parse_from(&argv(&[
            "--seed", "0x7AB1E7", "--threads", "4", "--faults", "40", "--metrics",
            "--ticks", "128", "--load", "500", "--drain-at", "64", "--middleware",
        ]))
        .unwrap();
        assert_eq!(args.seed, Some(0x7AB1E7));
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.faults, Some(40));
        assert!(args.metrics);
        assert_eq!(args.ticks, Some(128));
        assert_eq!(args.load, Some(500));
        assert_eq!(args.drain_at, Some(64));
        assert!(args.middleware);
    }

    #[test]
    fn parses_store_flags() {
        let args = ExampleArgs::parse_from(&argv(&[
            "--store", "target/out.store", "--from-store", "target/in.store",
        ]))
        .unwrap();
        assert_eq!(args.store.as_deref(), Some("target/out.store"));
        assert_eq!(args.from_store.as_deref(), Some("target/in.store"));
        assert!(ExampleArgs::parse_from(&argv(&["--store"])).is_err());
        assert!(ExampleArgs::parse_from(&argv(&["--from-store"])).is_err());
    }

    #[test]
    fn append_requires_a_store_path() {
        let args =
            ExampleArgs::parse_from(&argv(&["--store", "target/days", "--append"])).unwrap();
        assert!(args.append);
        assert_eq!(args.store.as_deref(), Some("target/days"));
        let bare = ExampleArgs::parse_from(&argv(&["--append"]));
        assert!(bare.is_err(), "--append without --store must be rejected");
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(ExampleArgs::parse_from(&argv(&["--seed", "zzz"])).is_err());
        assert!(ExampleArgs::parse_from(&argv(&["--threads", "0"])).is_err());
        assert!(ExampleArgs::parse_from(&argv(&["--faults", "2000"])).is_err());
        assert!(ExampleArgs::parse_from(&argv(&["--wat"])).is_err());
        assert!(ExampleArgs::parse_from(&argv(&["--seed"])).is_err());
        assert!(ExampleArgs::parse_from(&argv(&["--ticks", "0"])).is_err());
        assert!(ExampleArgs::parse_from(&argv(&["--load", "x"])).is_err());
        assert!(ExampleArgs::parse_from(&argv(&["--drain-at", "-3"])).is_err());
    }

    #[test]
    fn gateway_flags_layer_onto_the_config() {
        let args =
            ExampleArgs::parse_from(&argv(&["--ticks", "96", "--drain-at", "48"])).unwrap();
        let cfg = args.gateway_config(GatewayConfig::default());
        assert_eq!(cfg.ticks, 96);
        assert_eq!(cfg.load, GatewayConfig::default().load, "unset flag keeps the base");
        assert_eq!(cfg.drain_at, Some(48));
        let plain = ExampleArgs::default().gateway_config(GatewayConfig::default());
        assert_eq!(plain.drain_at, None);
    }

    #[test]
    fn flags_layer_onto_the_ctx() {
        let args = ExampleArgs::parse_from(&argv(&["--threads", "3", "--faults", "40"])).unwrap();
        let ctx = args.ctx(0xDE7);
        assert_eq!(ctx.seed(), 0xDE7);
        assert_eq!(ctx.threads(), 3);
        assert!(!ctx.plan().is_none());
        let clean = ExampleArgs::default().ctx(1);
        assert!(clean.plan().is_none());
    }

    #[test]
    fn fault_stats_line_reports_zeros_on_clean_runs() {
        let line = fault_stats_line(&FaultStats::default());
        assert!(line.starts_with("faults injected: 0"), "{line}");
    }
}
