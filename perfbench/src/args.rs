//! Command-line arguments: `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.

use std::fmt;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The three workloads (see the crate documentation for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    HeadlineCold,
    StudyWarm,
    ServingDay,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::HeadlineCold,
        WorkloadName::StudyWarm,
        WorkloadName::ServingDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::HeadlineCold => "headline_cold",
            WorkloadName::StudyWarm => "study_warm",
            WorkloadName::ServingDay => "serving_day",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for WorkloadName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One validated invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: WorkloadName,
    pub seed: u64,
    /// Length of the measured phase in seconds (at least one pass always runs).
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(WorkloadName::from_name(&name).ok_or_else(|| {
                    let known: Vec<_> = WorkloadName::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{name}' (expected one of {})",
                        known.join(", ")
                    )
                })?);
            }
            "--seed" => {
                let text = value()?;
                seed = text
                    .parse()
                    .map_err(|_| format!("--seed must be a non-negative integer, got '{text}'"))?;
            }
            "--seconds" => {
                let text = value()?;
                seconds = match text.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 && s <= 3600.0 => s,
                    _ => return Err(format!("--seconds must be in (0, 3600], got '{text}'")),
                };
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_every_workload_name() {
        for w in WorkloadName::ALL {
            let args = parse_str(&format!("--workload {w}")).unwrap();
            assert_eq!(args.workload, w);
            assert_eq!(args.seed, DEFAULT_SEED);
            assert!(!args.trace);
        }
    }

    #[test]
    fn parses_the_full_command_line() {
        let args = parse_str("--workload study_warm --seed 42 --seconds 7 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: WorkloadName::StudyWarm,
                seed: 42,
                seconds: 7.0,
                trace: true,
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_str("").is_err());
        assert!(parse_str("--workload nope").is_err());
        assert!(parse_str("--workload study_warm --seed -3").is_err());
        assert!(parse_str("--workload study_warm --seed x").is_err());
        assert!(parse_str("--workload study_warm --seconds 0").is_err());
        assert!(parse_str("--workload study_warm --trace 2").is_err());
        assert!(parse_str("--workload study_warm --seed").is_err());
        assert!(parse_str("--workload study_warm --frob 1").is_err());
    }
}
