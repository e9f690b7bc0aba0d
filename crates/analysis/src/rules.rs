//! The audit rules: token-level determinism hazards and the
//! fingerprint-coverage cross-check.
//!
//! See the crate docs ([`crate`]) for what each rule enforces, the
//! `audit:allow` suppression syntax, and how to add a rule.

use crate::lexer::{allow_directives, contains_identifier, mask, MaskMode};
use crate::{Finding, Suppression};

/// How a token rule matches a masked source line.
#[derive(Debug, Clone, Copy)]
pub enum MatchKind {
    /// Match any of the needles as standalone identifiers.
    Identifier(&'static [&'static str]),
    /// Match any of the needles as raw substrings (for multi-token shapes
    /// like `Mutex<Vec`).
    Substring(&'static [&'static str]),
}

/// One line-oriented hazard rule.
#[derive(Debug, Clone, Copy)]
pub struct TokenRule {
    /// Stable rule name — what `audit:allow(<name>)` refers to.
    pub name: &'static str,
    /// What the rule looks for.
    pub kind: MatchKind,
    /// Human-readable description attached to findings.
    pub message: &'static str,
}

/// Iteration order of `HashMap`/`HashSet` is randomized per process; any
/// use in a result-producing crate must be shown (and declared) order-safe
/// or converted to a `BTreeMap`/`BTreeSet`/sorted vector.
pub const UNORDERED_COLLECTION: TokenRule = TokenRule {
    name: "unordered_collection",
    kind: MatchKind::Identifier(&["HashMap", "HashSet"]),
    message: "HashMap/HashSet in a result-producing crate: iteration order is \
              nondeterministic; use a BTree collection, sort before use, or \
              justify with audit:allow",
};

/// Wall-clock reads make results depend on the host machine; only the
/// benchmark harness (crates/bench) may time things.
pub const WALL_CLOCK: TokenRule = TokenRule {
    name: "wall_clock",
    kind: MatchKind::Identifier(&["Instant", "SystemTime"]),
    message: "wall-clock time outside crates/bench: simulated results must \
              not depend on host timing",
};

/// Shared-state accumulation whose value (or order) depends on thread
/// interleaving: results must be written to per-index slots or reduced
/// order-insensitively.
pub const THREAD_ACCUMULATION: TokenRule = TokenRule {
    name: "thread_accumulation",
    kind: MatchKind::Substring(&[
        "Mutex<Vec",
        "RwLock<Vec",
        "fetch_add(",
        "fetch_sub(",
        "lock().unwrap().push(",
    ]),
    message: "thread-order-dependent accumulation: push-order or read-modify-write \
              on shared state varies with scheduling; collect into per-job \
              slots or justify with audit:allow",
};

/// Name of the synthetic rule reported for malformed `audit:allow`
/// directives (unknown rule name or missing reason).
pub const MALFORMED_ALLOW: &str = "malformed_allow";

/// Name of the fingerprint-coverage rule.
pub const FINGERPRINT_COVERAGE: &str = "fingerprint_coverage";

/// Every token rule, for directive validation.
pub const ALL_TOKEN_RULES: &[&TokenRule] =
    &[&UNORDERED_COLLECTION, &WALL_CLOCK, &THREAD_ACCUMULATION];

/// Outcome of scanning one file with a set of token rules.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Unsuppressed violations (including malformed allow directives).
    pub findings: Vec<Finding>,
    /// Violations covered by a valid `audit:allow`.
    pub suppressed: Vec<Suppression>,
}

/// Scans `source` (labelled `file`) with the given rules.
///
/// A finding is suppressed by a well-formed `audit:allow(rule): reason`
/// directive on the same line (trailing comment) or in a standalone
/// comment directly above it — "directly above" skips blank and
/// comment-only lines, so a directive may open a multi-line comment.
/// Directives naming an unknown rule or lacking a reason are themselves
/// findings.
pub fn scan_tokens(file: &str, source: &str, rules: &[&TokenRule]) -> ScanResult {
    let mut result = ScanResult::default();

    // Collect suppressions first: (rule, line) -> reason.
    let mut allows: Vec<(String, usize, String)> = Vec::new();
    for d in allow_directives(source) {
        let known = ALL_TOKEN_RULES.iter().any(|r| r.name == d.rule)
            || d.rule == FINGERPRINT_COVERAGE
            || d.rule == MALFORMED_ALLOW;
        if !known || d.reason.is_empty() {
            result.findings.push(Finding {
                rule: MALFORMED_ALLOW.to_string(),
                file: file.to_string(),
                line: d.line,
                snippet: source
                    .lines()
                    .nth(d.line - 1)
                    .unwrap_or("")
                    .trim()
                    .to_string(),
                message: if known {
                    "audit:allow directive lacks a justification after the colon".to_string()
                } else {
                    format!("audit:allow names unknown rule '{}'", d.rule)
                },
            });
        } else {
            allows.push((d.rule, d.line, d.reason));
        }
    }

    let masked = mask(source, MaskMode::CommentsAndStrings);
    let masked_lines: Vec<&str> = masked.lines().collect();

    // Resolve each directive to the lines it covers: its own line plus the
    // next line carrying any code (skipping blank and comment-only lines,
    // which mask to whitespace).
    let covers = |allow_line: usize, line: usize| -> bool {
        if line == allow_line {
            return true;
        }
        if line <= allow_line {
            return false;
        }
        masked_lines[allow_line..line - 1]
            .iter()
            .all(|l| l.trim().is_empty())
    };

    for (idx, (masked_line, raw_line)) in masked.lines().zip(source.lines()).enumerate() {
        let line = idx + 1;
        let trimmed = masked_line.trim_start();
        // Imports are not where the hazard lives: every *use site* of the
        // imported type is flagged, so flagging `use` lines too would only
        // force a second, redundant allow per file.
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        for rule in rules {
            let hit = match rule.kind {
                MatchKind::Identifier(needles) => needles
                    .iter()
                    .any(|needle| contains_identifier(masked_line, needle)),
                MatchKind::Substring(needles) => {
                    needles.iter().any(|needle| masked_line.contains(needle))
                }
            };
            if !hit {
                continue;
            }
            let allow = allows
                .iter()
                .find(|(r, l, _)| r == rule.name && covers(*l, line));
            match allow {
                Some((_, _, reason)) => result.suppressed.push(Suppression {
                    rule: rule.name.to_string(),
                    file: file.to_string(),
                    line,
                    reason: reason.clone(),
                }),
                None => result.findings.push(Finding {
                    rule: rule.name.to_string(),
                    file: file.to_string(),
                    line,
                    snippet: raw_line.trim().to_string(),
                    message: rule.message.to_string(),
                }),
            }
        }
    }
    result
}

// ---------------------------------------------------------------------------
// Fingerprint coverage
// ---------------------------------------------------------------------------

/// How one config-struct field is covered by the cache fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldStatus {
    /// The field name appears verbatim as a key emitted in fingerprint.rs.
    Fingerprinted,
    /// The manifest maps the field onto other emitted keys (all verified to
    /// exist).
    ViaKeys(Vec<String>),
    /// The manifest declares the field non-result-affecting, with a reason.
    Exempt(String),
}

/// Coverage of one field.
#[derive(Debug, Clone)]
pub struct FieldCoverage {
    /// Field name as declared in the struct.
    pub name: String,
    /// 1-based line of the field declaration.
    pub line: usize,
    /// Resolution, if the field is covered (uncovered fields are findings).
    pub status: Option<FieldStatus>,
}

/// Coverage of one audited struct.
#[derive(Debug, Clone)]
pub struct StructCoverage {
    /// Struct name.
    pub name: String,
    /// File the struct was parsed from (workspace-relative).
    pub file: String,
    /// Every field of the struct, in declaration order.
    pub fields: Vec<FieldCoverage>,
}

/// One audited struct: its name and the workspace-relative file that
/// defines it.
#[derive(Debug, Clone, Copy)]
pub struct StructSpec {
    /// Rust struct name.
    pub name: &'static str,
    /// Defining file, relative to the workspace root.
    pub file: &'static str,
}

/// Every result-affecting configuration struct the fingerprint must cover.
/// Adding a knob to any of these without fingerprinting it (or declaring it
/// exempt in the manifest) fails the audit.
pub const AUDITED_STRUCTS: &[StructSpec] = &[
    StructSpec {
        name: "GpuConfig",
        file: "crates/gpu-sim/src/config.rs",
    },
    StructSpec {
        name: "CacheConfig",
        file: "crates/gpu-sim/src/config.rs",
    },
    StructSpec {
        name: "DramConfig",
        file: "crates/gpu-sim/src/config.rs",
    },
    StructSpec {
        name: "DlrmConfig",
        file: "crates/dlrm/src/model.rs",
    },
    StructSpec {
        name: "EmbeddingConfig",
        file: "crates/kernels/src/workload.rs",
    },
    StructSpec {
        name: "TraceConfig",
        file: "crates/datasets/src/trace.rs",
    },
    StructSpec {
        name: "Cluster",
        file: "crates/core/src/topology.rs",
    },
    StructSpec {
        name: "InterconnectConfig",
        file: "crates/core/src/topology.rs",
    },
    StructSpec {
        name: "StreamConfig",
        file: "crates/core/src/topology.rs",
    },
    StructSpec {
        name: "Workload",
        file: "crates/core/src/workload.rs",
    },
    StructSpec {
        name: "Scheme",
        file: "crates/core/src/scheme.rs",
    },
    StructSpec {
        name: "L2Pinning",
        file: "crates/core/src/scheme.rs",
    },
    StructSpec {
        name: "PrefetchConfig",
        file: "crates/kernels/src/spec.rs",
    },
    StructSpec {
        name: "FaultPlan",
        file: "crates/core/src/serving/faults.rs",
    },
    StructSpec {
        name: "FaultEvent",
        file: "crates/core/src/serving/faults.rs",
    },
    StructSpec {
        name: "RetryPolicy",
        file: "crates/core/src/serving/retry.rs",
    },
    StructSpec {
        name: "AdmissionPolicy",
        file: "crates/core/src/serving/retry.rs",
    },
    StructSpec {
        name: "RoutingPolicy",
        file: "crates/core/src/fleet.rs",
    },
    StructSpec {
        name: "AutoscalePolicy",
        file: "crates/core/src/fleet.rs",
    },
    StructSpec {
        name: "FleetSpec",
        file: "crates/core/src/fleet.rs",
    },
    StructSpec {
        name: "ReplicaGroup",
        file: "crates/core/src/fleet.rs",
    },
];

/// Parses the field names of `struct_name` out of `source` (masked of
/// comments and strings first). Returns `(line, field_name)` pairs in
/// declaration order, or `None` if the struct is not found.
pub fn struct_fields(source: &str, struct_name: &str) -> Option<Vec<(usize, String)>> {
    let masked = mask(source, MaskMode::CommentsAndStrings);
    // Locate `struct <name>` as whole tokens followed by `{`.
    let mut search_from = 0usize;
    let body_start = loop {
        let rel = masked[search_from..].find("struct ")?;
        let at = search_from + rel;
        let before_ok = at == 0
            || !masked[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = masked[at + "struct ".len()..].trim_start();
        if before_ok && after.starts_with(struct_name) {
            let past = &after[struct_name.len()..];
            let past_trim = past.trim_start();
            if past_trim.starts_with('{') {
                let brace_off = masked[at..].find('{').expect("checked above");
                break at + brace_off + 1;
            }
        }
        search_from = at + "struct ".len();
    };

    // Walk the struct body at brace depth 1, collecting `name:` patterns at
    // the start of a (trimmed) line.
    let mut fields = Vec::new();
    let mut depth = 1usize;
    let mut line = masked[..body_start].matches('\n').count() + 1;
    let mut at_line_start = true;
    let mut i = body_start;
    let bytes = masked.as_bytes();
    while i < bytes.len() && depth > 0 {
        let c = bytes[i] as char;
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            '\n' => {
                line += 1;
                at_line_start = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        if at_line_start && depth == 1 && !c.is_whitespace() {
            at_line_start = false;
            let rest: &str = &masked[i..];
            let rest_line = rest.lines().next().unwrap_or("");
            let decl = rest_line
                .trim_start()
                .strip_prefix("pub ")
                .unwrap_or(rest_line.trim_start());
            if let Some(colon) = decl.find(':') {
                let name = decl[..colon].trim();
                let is_field = !name.is_empty()
                    && !decl[colon..].starts_with("::")
                    && name.chars().all(|ch| ch.is_alphanumeric() || ch == '_')
                    && name
                        .chars()
                        .next()
                        .is_some_and(|ch| ch.is_lowercase() || ch == '_');
                if is_field {
                    fields.push((line, name.to_string()));
                }
            }
        }
        i += 1;
    }
    Some(fields)
}

/// Extracts every key string emitted through `.set("key", ...)` calls in
/// the fingerprint module (comments masked; string literals kept).
pub fn fingerprint_keys(source: &str) -> Vec<String> {
    let masked = mask(source, MaskMode::Comments);
    let mut keys = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = masked[from..].find(".set(") {
        let at = from + rel + ".set(".len();
        let rest = masked[at..].trim_start();
        if let Some(stripped) = rest.strip_prefix('"') {
            if let Some(end) = stripped.find('"') {
                keys.push(stripped[..end].to_string());
            }
        }
        from = at;
    }
    keys.sort();
    keys.dedup();
    keys
}

/// One parsed manifest entry.
#[derive(Debug, Clone)]
enum ManifestEntry {
    Keys(Vec<String>),
    Exempt(String),
}

/// Runs the fingerprint-coverage rule over in-memory sources. `structs` is
/// `(spec name, file label, file source)`; files may repeat. Returns the
/// findings plus the full per-struct coverage enumeration.
pub fn coverage_from_sources(
    structs: &[(&str, &str, &str)],
    fingerprint_source: &str,
    fingerprint_file: &str,
    manifest_source: &str,
    manifest_file: &str,
) -> (Vec<Finding>, Vec<StructCoverage>) {
    let mut findings = Vec::new();
    let mut coverage = Vec::new();
    let keys = fingerprint_keys(fingerprint_source);
    if keys.is_empty() {
        findings.push(Finding {
            rule: FINGERPRINT_COVERAGE.to_string(),
            file: fingerprint_file.to_string(),
            line: 1,
            snippet: String::new(),
            message: "no fingerprint keys found: the key extractor no longer \
                      matches the fingerprint encoding"
                .to_string(),
        });
    }

    // Parse the manifest: `Struct.field => keys: a b c` or
    // `Struct.field => exempt: reason`.
    let mut manifest: Vec<(String, String, ManifestEntry, usize)> = Vec::new();
    for (idx, raw) in manifest_source.lines().enumerate() {
        let line = idx + 1;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let mut bad = |message: String| {
            findings.push(Finding {
                rule: FINGERPRINT_COVERAGE.to_string(),
                file: manifest_file.to_string(),
                line,
                snippet: text.to_string(),
                message,
            });
        };
        let Some((target, rhs)) = text.split_once("=>") else {
            bad("manifest line is not of the form 'Struct.field => ...'".to_string());
            continue;
        };
        let Some((sname, fname)) = target.trim().split_once('.') else {
            bad("manifest target must be 'Struct.field'".to_string());
            continue;
        };
        let rhs = rhs.trim();
        let entry = if let Some(k) = rhs.strip_prefix("keys:") {
            let ks: Vec<String> = k.split_whitespace().map(str::to_string).collect();
            if ks.is_empty() {
                bad("'keys:' entry lists no keys".to_string());
                continue;
            }
            ManifestEntry::Keys(ks)
        } else if let Some(r) = rhs.strip_prefix("exempt:") {
            let reason = r.trim();
            if reason.is_empty() {
                bad("'exempt:' entry needs a justification".to_string());
                continue;
            }
            ManifestEntry::Exempt(reason.to_string())
        } else {
            bad("manifest entry must be 'keys: ...' or 'exempt: ...'".to_string());
            continue;
        };
        manifest.push((
            sname.trim().to_string(),
            fname.trim().to_string(),
            entry,
            line,
        ));
    }

    let mut used_manifest = vec![false; manifest.len()];
    for &(name, file, source) in structs {
        let Some(fields) = struct_fields(source, name) else {
            findings.push(Finding {
                rule: FINGERPRINT_COVERAGE.to_string(),
                file: file.to_string(),
                line: 1,
                snippet: String::new(),
                message: format!(
                    "audited struct '{name}' not found in {file}; update the \
                     AUDITED_STRUCTS table if it moved or was renamed"
                ),
            });
            continue;
        };
        let mut fcov = Vec::new();
        for (line, field) in fields {
            let manifest_idx = manifest
                .iter()
                .position(|(s, f, _, _)| s == name && f == &field);
            let direct = keys.iter().any(|k| k == &field);
            let status = match manifest_idx {
                Some(mi) => {
                    used_manifest[mi] = true;
                    let (_, _, entry, mline) = &manifest[mi];
                    if direct {
                        findings.push(Finding {
                            rule: FINGERPRINT_COVERAGE.to_string(),
                            file: manifest_file.to_string(),
                            line: *mline,
                            snippet: format!("{name}.{field}"),
                            message: format!(
                                "stale manifest entry: '{field}' is already \
                                 emitted as a fingerprint key"
                            ),
                        });
                    }
                    match entry {
                        ManifestEntry::Keys(ks) => {
                            for k in ks {
                                if !keys.iter().any(|have| have == k) {
                                    findings.push(Finding {
                                        rule: FINGERPRINT_COVERAGE.to_string(),
                                        file: manifest_file.to_string(),
                                        line: *mline,
                                        snippet: format!("{name}.{field}"),
                                        message: format!(
                                            "manifest maps '{field}' to key \
                                             '{k}', which fingerprint.rs does \
                                             not emit"
                                        ),
                                    });
                                }
                            }
                            Some(FieldStatus::ViaKeys(ks.clone()))
                        }
                        ManifestEntry::Exempt(reason) => Some(FieldStatus::Exempt(reason.clone())),
                    }
                }
                None if direct => Some(FieldStatus::Fingerprinted),
                None => {
                    findings.push(Finding {
                        rule: FINGERPRINT_COVERAGE.to_string(),
                        file: file.to_string(),
                        line,
                        snippet: field.clone(),
                        message: format!(
                            "field '{field}' of result-affecting struct \
                             '{name}' is neither emitted as a fingerprint key \
                             nor declared in the manifest: a new knob that \
                             changes results would silently alias cache cells"
                        ),
                    });
                    None
                }
            };
            fcov.push(FieldCoverage {
                name: field,
                line,
                status,
            });
        }
        coverage.push(StructCoverage {
            name: name.to_string(),
            file: file.to_string(),
            fields: fcov,
        });
    }

    for (used, (sname, fname, _, mline)) in used_manifest.iter().zip(&manifest) {
        if !used {
            findings.push(Finding {
                rule: FINGERPRINT_COVERAGE.to_string(),
                file: manifest_file.to_string(),
                line: *mline,
                snippet: format!("{sname}.{fname}"),
                message: format!(
                    "manifest entry '{sname}.{fname}' matches no field of any \
                     audited struct (stale after a rename?)"
                ),
            });
        }
    }

    (findings, coverage)
}
