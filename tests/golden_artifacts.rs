//! Golden-snapshot suite: every exported paper artifact — Tables 1–9,
//! Figures 1–5, and the §5.1 summary statistics — serialized to
//! canonical JSON and pinned byte-for-byte against fixtures under
//! `tests/golden/`. The passive artifacts (Figures 1–3, Table 8, §5.1)
//! come from the production fold, `analyze_columnar`, the same one the
//! store-backed and streamed pipelines run at paper scale.
//!
//! A failure here means an artifact changed. If the change is
//! intentional (a renderer edit, a deliberate model change),
//! regenerate the fixtures and review the diff before committing:
//!
//! ```sh
//! IOTLS_BLESS=1 cargo test -q --offline --test golden_artifacts
//! git diff tests/golden/
//! ```
//!
//! Fixtures are canonical JSON (sorted behavior comes from the
//! renderers themselves being deterministic; the JSON encoder keeps
//! insertion order and emits no whitespace). Floats are serialized as
//! fixed-precision strings so the files stay byte-stable across
//! formatting changes.

use iotls_repro::analysis::{experiment_artifacts, figures, tables};
use iotls_repro::capture::global_columnar;
use iotls_repro::capture::json::Json;
use iotls_repro::core::{
    analyze_columnar, library_alert_matrix, ExperimentCtx, ExperimentKind, Orchestrator,
    PassiveAnalysis, Report,
};
use iotls_repro::devices::Testbed;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Seed for the labeled application fingerprint database Figure 5
/// joins against (the experiment seeds themselves are canonical:
/// [`ExperimentKind::canonical_seed`]).
const FPDB_SEED: u64 = 0xDB;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compares (or, under `IOTLS_BLESS=1`, rewrites) one artifact's
/// fixture.
fn check(name: &str, artifact: Json) {
    let encoded = artifact.encode() + "\n";
    let path = fixture_path(name);
    if std::env::var("IOTLS_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &encoded)
            .unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing fixture {} — regenerate with IOTLS_BLESS=1 (see module docs)",
            path.display()
        )
    });
    assert_eq!(
        want, encoded,
        "artifact `{name}` drifted from its golden fixture; if intentional, \
         rebless with IOTLS_BLESS=1 and review the diff"
    );
}

/// Wraps a rendered table/figure in the canonical artifact envelope.
fn text_artifact(name: &str, text: String) -> Json {
    Json::Obj(vec![
        ("artifact".into(), Json::Str(name.into())),
        ("text".into(), Json::Str(text)),
    ])
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

/// The one passive analysis every passive fixture renders from: the
/// production fold over the seed-scale capture.
fn passive() -> &'static PassiveAnalysis {
    static A: OnceLock<PassiveAnalysis> = OnceLock::new();
    A.get_or_init(|| analyze_columnar(global_columnar(), &ExperimentCtx::new(0)))
}

#[test]
fn golden_static_tables() {
    check(
        "table1_roster",
        text_artifact("table1_roster", tables::table1_roster(Testbed::global())),
    );
    check(
        "table2_attacks",
        text_artifact("table2_attacks", tables::table2_attacks()),
    );
    check(
        "table3_platforms",
        text_artifact("table3_platforms", tables::table3_platforms()),
    );
    check(
        "table4_library_alerts",
        text_artifact(
            "table4_library_alerts",
            tables::table4_library_alerts(&library_alert_matrix()),
        ),
    );
}

#[test]
fn golden_experiment_registry() {
    // One orchestrator pass over the whole registry at the canonical
    // seeds covers every experiment-backed fixture: Tables 5, 6, 7, 9,
    // Figures 4 and 5, and the gateway drain snapshot. The audit
    // service backs no fixture but still runs, so a panic in any
    // engine fails this test.
    let testbed = Testbed::global();
    let ctx = ExperimentCtx::new(0);
    let runs = Orchestrator::new(testbed, &ctx).canonical_seeds().run_all();
    assert_eq!(runs.len(), ExperimentKind::ALL.len());
    let mut checked = 0;
    for run in &runs {
        let report = run
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", run.kind.name()));
        let rendered = experiment_artifacts(testbed, report, FPDB_SEED);
        let names: Vec<&str> = rendered.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, report.fixtures(), "{}", run.kind.name());
        for (name, text) in rendered {
            check(name, text_artifact(name, text));
            checked += 1;
        }
    }
    assert_eq!(checked, 7, "fixture coverage shrank");
}

#[test]
fn golden_table8_revocation() {
    let a = passive();
    check(
        "table8_revocation",
        text_artifact(
            "table8_revocation",
            tables::table8_revocation(&a.revocation, &a.device_names),
        ),
    );
}

#[test]
fn golden_longitudinal_figures() {
    let a = passive();
    let axis = &a.month_axis;
    check(
        "fig1_versions",
        text_artifact(
            "fig1_versions",
            figures::fig1_versions(axis, &a.version_series, &a.summary.fig1_devices),
        ),
    );
    check(
        "fig2_insecure",
        text_artifact("fig2_insecure", figures::fig2_insecure(axis, &a.cipher_series)),
    );
    check(
        "fig3_strong",
        text_artifact("fig3_strong", figures::fig3_strong(axis, &a.cipher_series)),
    );
}

#[test]
fn golden_section51_summary() {
    let s = &passive().summary;
    check(
        "section51_summary",
        Json::Obj(vec![
            ("artifact".into(), Json::Str("section51_summary".into())),
            (
                "tls12_exclusive_devices".into(),
                str_arr(&s.tls12_exclusive_devices),
            ),
            ("fig1_devices".into(), str_arr(&s.fig1_devices)),
            ("null_anon_seen".into(), Json::Bool(s.null_anon_seen)),
            (
                "devices_advertising_insecure".into(),
                str_arr(&s.devices_advertising_insecure),
            ),
            (
                "devices_establishing_insecure".into(),
                str_arr(&s.devices_establishing_insecure),
            ),
            (
                "devices_advertising_fs".into(),
                str_arr(&s.devices_advertising_fs),
            ),
            (
                "devices_mostly_without_fs".into(),
                str_arr(&s.devices_mostly_without_fs),
            ),
            (
                "pct_connections_tls13".into(),
                Json::Str(format!("{:.4}", s.pct_connections_tls13)),
            ),
            (
                "pct_connections_rc4".into(),
                Json::Str(format!("{:.4}", s.pct_connections_rc4)),
            ),
        ]),
    );
}
