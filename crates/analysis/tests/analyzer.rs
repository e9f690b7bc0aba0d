//! Self-tests for the workspace auditor: every rule fires on a seeded
//! fixture, suppressions and malformed directives behave as documented,
//! the fingerprint-coverage rule catches a deliberately unfingerprinted
//! field, and the real workspace audits clean.

use analysis::rules::{
    coverage_from_sources, fingerprint_keys, scan_tokens, struct_fields, FieldStatus,
    ALL_TOKEN_RULES, THREAD_ACCUMULATION, UNORDERED_COLLECTION, WALL_CLOCK,
};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn rules_of(findings: &[analysis::Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn every_token_rule_fires_on_the_seeded_fixture() {
    let src = fixture("determinism_violations.rs");
    let result = scan_tokens("fixture.rs", &src, ALL_TOKEN_RULES);
    // HashMap::new + HashSet decl (the `use` line is skipped by design).
    assert_eq!(rules_of(&result.findings, "unordered_collection"), 2);
    // Instant::now + SystemTime::now.
    assert_eq!(rules_of(&result.findings, "wall_clock"), 2);
    // Mutex<Vec field + fetch_add + fetch_sub.
    assert_eq!(rules_of(&result.findings, "thread_accumulation"), 3);
    assert!(result.suppressed.is_empty());
    // Needles inside strings and comments must NOT fire: total is exactly
    // the seeded count.
    assert_eq!(result.findings.len(), 7, "{:#?}", result.findings);
}

#[test]
fn valid_allows_suppress_and_are_recorded() {
    let src = fixture("suppressed.rs");
    let result = scan_tokens("fixture.rs", &src, ALL_TOKEN_RULES);
    assert!(
        result.findings.is_empty(),
        "fully-allowed fixture still produced {:#?}",
        result.findings
    );
    assert_eq!(result.suppressed.len(), 3);
    let rules: Vec<&str> = result.suppressed.iter().map(|s| s.rule.as_str()).collect();
    assert!(rules.contains(&"unordered_collection"));
    assert!(rules.contains(&"wall_clock"));
    assert!(rules.contains(&"thread_accumulation"));
    assert!(result.suppressed.iter().all(|s| !s.reason.is_empty()));
}

#[test]
fn malformed_directives_are_findings_and_do_not_suppress() {
    let src = fixture("malformed_allows.rs");
    let result = scan_tokens("fixture.rs", &src, ALL_TOKEN_RULES);
    // One reason-less directive, one unknown-rule directive.
    assert_eq!(rules_of(&result.findings, "malformed_allow"), 2);
    // Neither directive suppressed the violation on its own line.
    assert_eq!(rules_of(&result.findings, "unordered_collection"), 2);
    assert!(result.suppressed.is_empty());
}

#[test]
fn use_lines_are_exempt_from_token_rules() {
    let src = "use std::collections::HashMap;\npub use std::time::Instant;\n";
    let result = scan_tokens("f.rs", src, ALL_TOKEN_RULES);
    assert!(result.findings.is_empty(), "{:#?}", result.findings);
}

#[test]
fn trailing_allow_covers_its_own_line_only_matching_rule() {
    let src =
        "let t = std::time::Instant::now(); // audit:allow(unordered_collection): wrong rule\n";
    let result = scan_tokens("f.rs", src, &[&WALL_CLOCK, &UNORDERED_COLLECTION]);
    // The directive names a different rule, so the wall_clock finding stays.
    assert_eq!(rules_of(&result.findings, "wall_clock"), 1);
}

/// A sharded selection pattern: the accumulating
/// variant (workers folding picks into shared atomics/locked vecs) must
/// fire `thread_accumulation`, while the commit-point variant (disjoint
/// per-shard slots, serial commit) must scan clean.
#[test]
fn sharded_commit_fixture_separates_hazard_from_commit_point() {
    let src = fixture("sharded_commit.rs");
    let result = scan_tokens("sharded_commit.rs", &src, &[&THREAD_ACCUMULATION]);
    // fetch_add + lock().unwrap().push( + the Mutex<Vec field.
    assert_eq!(
        rules_of(&result.findings, "thread_accumulation"),
        3,
        "{:#?}",
        result.findings
    );
    // Every finding sits in the accumulating half of the fixture; the
    // commit-point half (below the serial-commit comment) is clean.
    let commit_point_start = src
        .lines()
        .position(|l| l.contains("fn sharded_select_commit_point"))
        .unwrap()
        + 1;
    assert!(
        result.findings.iter().all(|f| f.line < commit_point_start),
        "commit-point pattern was flagged: {:#?}",
        result.findings
    );
    assert!(result.suppressed.is_empty());
}

#[test]
fn accumulation_rule_matches_substring_shapes() {
    let src = "struct S { v: Mutex<Vec<u8>> }\nfn f(c: &AtomicU64) { c.fetch_add(1, O); }\n";
    let result = scan_tokens("f.rs", src, &[&THREAD_ACCUMULATION]);
    assert_eq!(result.findings.len(), 2);
}

// ---------------------------------------------------------------------------
// Fingerprint coverage
// ---------------------------------------------------------------------------

const FAKE_FINGERPRINT: &str = r#"
pub fn cell_key() {
    doc.set("num_sms", x);
    doc.set("clock_ghz", y);
    doc.set("seed", z);
    // doc.set("commented_out", w); must not count
}
"#;

/// Regression test for the acceptance criterion: a config struct that
/// grows a result-affecting field without a fingerprint key (and without a
/// manifest entry) MUST fail the audit.
#[test]
fn unfingerprinted_field_is_caught() {
    let struct_src =
        "pub struct FakeConfig {\n    pub num_sms: usize,\n    pub secret_knob: u32,\n}\n";
    let (findings, coverage) = coverage_from_sources(
        &[("FakeConfig", "fake.rs", struct_src)],
        FAKE_FINGERPRINT,
        "fp.rs",
        "",
        "manifest.txt",
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "fingerprint_coverage");
    assert!(findings[0].message.contains("secret_knob"));
    assert_eq!(findings[0].file, "fake.rs");
    assert_eq!(findings[0].line, 3);
    // The enumeration still lists every field, covered or not.
    assert_eq!(coverage.len(), 1);
    let fields: Vec<&str> = coverage[0].fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(fields, ["num_sms", "secret_knob"]);
    assert_eq!(
        coverage[0].fields[0].status,
        Some(FieldStatus::Fingerprinted)
    );
    assert_eq!(coverage[0].fields[1].status, None);
}

#[test]
fn manifest_keys_and_exempt_entries_cover_fields() {
    let struct_src = "pub struct FakeConfig {\n    pub device: Gpu,\n    pub scratch: u32,\n}\n";
    let manifest = "FakeConfig.device => keys: num_sms clock_ghz\n\
                    FakeConfig.scratch => exempt: debug-only scratch space\n";
    let (findings, coverage) = coverage_from_sources(
        &[("FakeConfig", "fake.rs", struct_src)],
        FAKE_FINGERPRINT,
        "fp.rs",
        manifest,
        "manifest.txt",
    );
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(
        coverage[0].fields[0].status,
        Some(FieldStatus::ViaKeys(vec![
            "num_sms".to_string(),
            "clock_ghz".to_string()
        ]))
    );
    assert_eq!(
        coverage[0].fields[1].status,
        Some(FieldStatus::Exempt("debug-only scratch space".to_string()))
    );
}

#[test]
fn stale_and_invalid_manifest_entries_are_findings() {
    let struct_src = "pub struct FakeConfig {\n    pub num_sms: usize,\n}\n";
    let manifest = "FakeConfig.num_sms => exempt: already a key, so this is stale\n\
                    FakeConfig.gone => keys: num_sms\n\
                    FakeConfig.num_sms keys num_sms\n\
                    Other.field => keys: no_such_key\n";
    let (findings, _) = coverage_from_sources(
        &[("FakeConfig", "fake.rs", struct_src)],
        FAKE_FINGERPRINT,
        "fp.rs",
        manifest,
        "manifest.txt",
    );
    // Stale (field already fingerprinted), unmatched entry x2 (gone +
    // Other.field never match a field), bad syntax. The bogus key in the
    // unmatched Other.field entry is not separately validated — unmatched
    // is already a finding.
    assert_eq!(
        rules_of(&findings, "fingerprint_coverage"),
        4,
        "{findings:#?}"
    );
    assert!(findings.iter().all(|f| f.file == "manifest.txt"));
}

#[test]
fn commented_out_set_calls_do_not_count_as_keys() {
    let keys = fingerprint_keys(FAKE_FINGERPRINT);
    assert_eq!(keys, ["clock_ghz", "num_sms", "seed"]);
}

#[test]
fn struct_field_parser_handles_nested_braces_and_noise() {
    let src = r#"
/// Docs mentioning struct Fake { not_a_field: u8 } in prose.
pub struct Other {
    pub other_field: u32,
}
pub struct Fake {
    /// doc comment
    pub alpha: Vec<(u32, u64)>,
    beta: std::collections::BTreeMap<String, Inner>,
    pub gamma: Option<Box<dyn Fn(u32) -> u32>>,
}
"#;
    let fields = struct_fields(src, "Fake").expect("Fake must parse");
    let names: Vec<&str> = fields.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(names, ["alpha", "beta", "gamma"]);
    assert!(struct_fields(src, "Missing").is_none());
    // Substring names must not cross-match.
    let other = struct_fields(src, "Other").expect("Other must parse");
    assert_eq!(other.len(), 1);
}

// ---------------------------------------------------------------------------
// The real workspace
// ---------------------------------------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analysis sits two levels below the workspace root")
        .to_path_buf()
}

/// The tree must audit clean — this is the same check CI gates on.
#[test]
fn workspace_audits_clean() {
    let audit = analysis::audit_workspace(&workspace_root());
    assert!(
        audit.findings.is_empty(),
        "workspace has unsuppressed audit findings:\n{:#?}",
        audit.findings
    );
    assert!(audit.files_scanned > 40, "suspiciously few files scanned");
    // Every suppression must carry a justification.
    assert!(audit.suppressed.iter().all(|s| !s.reason.is_empty()));
}

/// The coverage enumeration must list every audited struct with all of its
/// fields resolved — the audit is only meaningful if the field parser
/// actually sees the real structs.
#[test]
fn workspace_coverage_enumerates_all_audited_structs() {
    let audit = analysis::audit_workspace(&workspace_root());
    let names: Vec<&str> = audit.coverage.iter().map(|c| c.name.as_str()).collect();
    for expected in [
        "GpuConfig",
        "CacheConfig",
        "DlrmConfig",
        "Cluster",
        "InterconnectConfig",
        "StreamConfig",
        "Workload",
        "Scheme",
    ] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
    for sc in &audit.coverage {
        assert!(!sc.fields.is_empty(), "struct {} parsed no fields", sc.name);
        for f in &sc.fields {
            assert!(
                f.status.is_some(),
                "{}.{} is uncovered but the audit reported no finding",
                sc.name,
                f.name
            );
        }
    }
    // Spot-check the one exempt field and one via-keys mapping.
    let gpu = audit
        .coverage
        .iter()
        .find(|c| c.name == "GpuConfig")
        .unwrap();
    let cap = gpu
        .fields
        .iter()
        .find(|f| f.name == "max_concurrent_streams")
        .expect("GpuConfig.max_concurrent_streams must be enumerated");
    assert!(matches!(cap.status, Some(FieldStatus::Exempt(_))));
    let workload = audit
        .coverage
        .iter()
        .find(|c| c.name == "Workload")
        .unwrap();
    let target = workload.fields.iter().find(|f| f.name == "target").unwrap();
    assert!(matches!(target.status, Some(FieldStatus::ViaKeys(_))));
}

/// AUDIT.json must be well-formed enough for CI consumers: a quick
/// structural sanity check without a JSON parser dependency.
#[test]
fn audit_json_renders_expected_sections() {
    let audit = analysis::audit_workspace(&workspace_root());
    let json = audit.to_json();
    assert!(json.contains("\"schema\": \"perf-envelope/audit/v1\""));
    assert!(json.contains("\"findings\": []"));
    assert!(json.contains("\"suppressed\": ["));
    assert!(json.contains("\"coverage\": ["));
    assert!(json.contains("\"struct\": \"GpuConfig\""));
    assert!(json.contains("\"status\": \"exempt\""));
    assert!(json.contains("\"status\": \"via_keys\""));
}
