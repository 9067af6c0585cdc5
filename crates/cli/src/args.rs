//! Hand-rolled argument parsing (no external CLI dependency).

/// Usage text.
pub const USAGE: &str = "\
abs-cli — Adaptive Bulk Search QUBO solver

USAGE:
    abs-cli solve  <file.qubo>  [OPTIONS]   solve a .qubo file
    abs-cli random <bits>       [OPTIONS]   solve a synthetic random instance
    abs-cli gset   <name>       [OPTIONS]   solve a G-set stand-in (e.g. G1)
    abs-cli tsp    <name>       [OPTIONS]   solve a TSPLIB stand-in (e.g. berlin52)
    abs-cli info   <file.qubo>              print instance statistics
    abs-cli verify <file.qubo> <file.sol>   recompute and check a saved solution
    abs-cli serve  [SERVER OPTIONS]         run the HTTP job server (abs-server)

OPTIONS:
    --timeout-ms <N>   wall-clock budget in milliseconds   [default: 1000]
    --target <E>       stop early at energy ≤ E
    --devices <D>      number of virtual GPUs              [default: 1]
    --blocks <B>       logical blocks per device           [default: 8]
    --seed <S>         master seed                         [default: 0]
    --preset <P>       family preset: maxcut | tsp | random
    --save <PATH>      write the best solution to a .sol file
    --problem-json     (solve) the input file is the JSON problem format
                       {\"format\": \"dense\"|\"edge-list\", ...} instead of .qubo text
    --json             machine-readable output
    --fault-seed <S>   inject a seeded deterministic fault plan (testing)
    --hard-timeout-ms <N>  watchdog wall-clock ceiling on the whole solve
    --audit-stride <K> host re-checks every K-th record's energy (0 = improvements only)
    --metrics-out <PATH>       write the final metrics snapshot (.json = JSON,
                               anything else = Prometheus text exposition)
    --metrics-interval-ms <N>  also rewrite the snapshot every N ms during the run
    --checkpoint-out <PATH>        crash-safe session checkpoint file; written on
                                   SIGINT/SIGTERM and at every stride
    --checkpoint-interval-ms <N>   stride between checkpoints during the run
    --checkpoint-keep <K>          on-disk generations kept        [default: 3]
    --resume <PATH>                resume the session from the newest valid
                                   checkpoint generation at PATH";

/// Parsed subcommand.
#[derive(Debug, PartialEq, Eq)]
pub enum Command {
    /// Solve a `.qubo` file.
    Solve {
        /// Path to the file.
        path: String,
    },
    /// Solve a synthetic random instance.
    Random {
        /// Problem size in bits.
        bits: usize,
    },
    /// Solve a G-set stand-in by catalog name.
    Gset {
        /// Instance name (G1, G6, …).
        name: String,
    },
    /// Solve a TSPLIB stand-in by catalog name.
    Tsp {
        /// Instance name (berlin52, …).
        name: String,
    },
    /// Print instance statistics.
    Info {
        /// Path to the file.
        path: String,
    },
    /// Verify a saved solution against its instance.
    Verify {
        /// Path to the `.qubo` file.
        problem: String,
        /// Path to the `.sol` file.
        solution: String,
    },
    /// Run the HTTP job server; arguments pass through to `abs-server`.
    Serve {
        /// Verbatim server arguments (parsed by `abs_server::args`).
        args: Vec<String>,
    },
}

/// Parsed options.
#[derive(Debug, PartialEq)]
pub struct Options {
    pub timeout_ms: u64,
    pub target: Option<i64>,
    pub devices: Option<usize>,
    pub blocks: Option<usize>,
    pub seed: u64,
    pub preset: Option<String>,
    pub save: Option<String>,
    pub json: bool,
    pub problem_json: bool,
    pub fault_seed: Option<u64>,
    pub hard_timeout_ms: Option<u64>,
    pub audit_stride: Option<u64>,
    pub metrics_out: Option<String>,
    pub metrics_interval_ms: Option<u64>,
    pub checkpoint_out: Option<String>,
    pub checkpoint_interval_ms: Option<u64>,
    pub checkpoint_keep: Option<usize>,
    pub resume: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            timeout_ms: 1000,
            target: None,
            devices: None,
            blocks: None,
            seed: 0,
            preset: None,
            save: None,
            json: false,
            problem_json: false,
            fault_seed: None,
            hard_timeout_ms: None,
            audit_stride: None,
            metrics_out: None,
            metrics_interval_ms: None,
            checkpoint_out: None,
            checkpoint_interval_ms: None,
            checkpoint_keep: None,
            resume: None,
        }
    }
}

/// Parses argv (without the program name). `Ok(None)` means "print
/// usage and exit 0" (no arguments or `--help`).
pub fn parse(argv: &[String]) -> Result<Option<(Command, Options)>, String> {
    let mut it = argv.iter();
    let sub = match it.next() {
        None => return Ok(None),
        Some(s) if s == "--help" || s == "-h" => return Ok(None),
        Some(s) => s.as_str(),
    };
    let positional = |it: &mut std::slice::Iter<'_, String>, what: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{sub}: missing {what}"))
    };
    let cmd = match sub {
        "solve" => Command::Solve {
            path: positional(&mut it, "file path")?,
        },
        "info" => Command::Info {
            path: positional(&mut it, "file path")?,
        },
        "verify" => Command::Verify {
            problem: positional(&mut it, "problem path")?,
            solution: positional(&mut it, "solution path")?,
        },
        "random" => {
            let bits = positional(&mut it, "bit count")?;
            let bits: usize = bits
                .parse()
                .map_err(|_| format!("random: bad bit count {bits:?}"))?;
            if !(1..=qubo::MAX_BITS).contains(&bits) {
                return Err(format!(
                    "random: bit count {bits} not in 1..={}",
                    qubo::MAX_BITS
                ));
            }
            Command::Random { bits }
        }
        "gset" => Command::Gset {
            name: positional(&mut it, "instance name")?,
        },
        "tsp" => Command::Tsp {
            name: positional(&mut it, "instance name")?,
        },
        // Server flags differ from solve flags; hand them through
        // verbatim for `abs_server::args` to parse.
        "serve" => {
            return Ok(Some((
                Command::Serve {
                    args: it.cloned().collect(),
                },
                Options::default(),
            )));
        }
        other => return Err(format!("unknown command {other:?}")),
    };

    let mut opts = Options::default();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag}: missing {what}"))
        };
        match flag.as_str() {
            "--timeout-ms" => {
                opts.timeout_ms = value("milliseconds")?
                    .parse()
                    .map_err(|_| format!("{flag}: expected an integer"))?;
            }
            "--target" => {
                opts.target = Some(
                    value("energy")?
                        .parse()
                        .map_err(|_| format!("{flag}: expected an integer"))?,
                );
            }
            "--devices" => {
                opts.devices = Some(
                    value("count")?
                        .parse()
                        .map_err(|_| format!("{flag}: expected an integer"))?,
                );
            }
            "--blocks" => {
                opts.blocks = Some(
                    value("count")?
                        .parse()
                        .map_err(|_| format!("{flag}: expected an integer"))?,
                );
            }
            "--seed" => {
                opts.seed = value("seed")?
                    .parse()
                    .map_err(|_| format!("{flag}: expected an integer"))?;
            }
            "--preset" => {
                let p = value("preset name")?.clone();
                if !matches!(p.as_str(), "maxcut" | "tsp" | "random") {
                    return Err(format!("{flag}: unknown preset {p:?}"));
                }
                opts.preset = Some(p);
            }
            "--save" => opts.save = Some(value("path")?.clone()),
            "--json" => opts.json = true,
            "--problem-json" => opts.problem_json = true,
            "--fault-seed" => {
                opts.fault_seed = Some(
                    value("seed")?
                        .parse()
                        .map_err(|_| format!("{flag}: expected an integer"))?,
                );
            }
            "--hard-timeout-ms" => {
                opts.hard_timeout_ms = Some(
                    value("milliseconds")?
                        .parse()
                        .map_err(|_| format!("{flag}: expected an integer"))?,
                );
            }
            "--audit-stride" => {
                opts.audit_stride = Some(
                    value("stride")?
                        .parse()
                        .map_err(|_| format!("{flag}: expected an integer"))?,
                );
            }
            "--metrics-out" => opts.metrics_out = Some(value("path")?.clone()),
            "--metrics-interval-ms" => {
                opts.metrics_interval_ms = Some(
                    value("milliseconds")?
                        .parse()
                        .map_err(|_| format!("{flag}: expected an integer"))?,
                );
            }
            "--checkpoint-out" => opts.checkpoint_out = Some(value("path")?.clone()),
            "--checkpoint-interval-ms" => {
                opts.checkpoint_interval_ms = Some(
                    value("milliseconds")?
                        .parse()
                        .map_err(|_| format!("{flag}: expected an integer"))?,
                );
            }
            "--checkpoint-keep" => {
                opts.checkpoint_keep = Some(
                    value("count")?
                        .parse()
                        .map_err(|_| format!("{flag}: expected an integer"))?,
                );
            }
            "--resume" => opts.resume = Some(value("path")?.clone()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Some((cmd, opts)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn empty_and_help_print_usage() {
        assert_eq!(parse(&[]).unwrap(), None);
        assert_eq!(parse(&v(&["--help"])).unwrap(), None);
    }

    #[test]
    fn solve_with_options() {
        let (cmd, opts) = parse(&v(&[
            "solve",
            "x.qubo",
            "--timeout-ms",
            "250",
            "--target",
            "-42",
            "--json",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                path: "x.qubo".into()
            }
        );
        assert_eq!(opts.timeout_ms, 250);
        assert_eq!(opts.target, Some(-42));
        assert!(opts.json);
    }

    #[test]
    fn metrics_flags_parse() {
        let (_, opts) = parse(&v(&[
            "random",
            "64",
            "--metrics-out",
            "run.prom",
            "--metrics-interval-ms",
            "250",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(opts.metrics_out.as_deref(), Some("run.prom"));
        assert_eq!(opts.metrics_interval_ms, Some(250));
        let (_, opts) = parse(&v(&["random", "64"])).unwrap().unwrap();
        assert_eq!(opts.metrics_out, None);
        assert_eq!(opts.metrics_interval_ms, None);
    }

    #[test]
    fn random_parses_bits() {
        let (cmd, _) = parse(&v(&["random", "512"])).unwrap().unwrap();
        assert_eq!(cmd, Command::Random { bits: 512 });
        let max = qubo::MAX_BITS.to_string();
        let (cmd, _) = parse(&v(&["random", &max])).unwrap().unwrap();
        assert_eq!(
            cmd,
            Command::Random {
                bits: qubo::MAX_BITS
            }
        );
    }

    #[test]
    fn random_rejects_sizes_outside_the_supported_range() {
        let err = parse(&v(&["random", "0"])).unwrap_err();
        assert!(err.contains("not in 1..="), "{err}");
        let over = (qubo::MAX_BITS + 1).to_string();
        assert!(parse(&v(&["random", &over])).is_err());
        assert!(parse(&v(&["random", "-3"])).is_err());
    }

    #[test]
    fn verify_takes_two_paths() {
        let (cmd, _) = parse(&v(&["verify", "p.qubo", "s.sol"])).unwrap().unwrap();
        assert_eq!(
            cmd,
            Command::Verify {
                problem: "p.qubo".into(),
                solution: "s.sol".into()
            }
        );
        assert!(parse(&v(&["verify", "p.qubo"])).is_err());
    }

    #[test]
    fn preset_option_validates() {
        let (_, opts) = parse(&v(&["random", "8", "--preset", "tsp"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.preset.as_deref(), Some("tsp"));
        assert!(parse(&v(&["random", "8", "--preset", "bogus"]))
            .unwrap_err()
            .contains("unknown preset"));
    }

    #[test]
    fn save_option_parses() {
        let (_, opts) = parse(&v(&["random", "8", "--save", "out.sol"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.save.as_deref(), Some("out.sol"));
    }

    #[test]
    fn robustness_options_parse() {
        let (_, opts) = parse(&v(&[
            "random",
            "8",
            "--fault-seed",
            "7",
            "--hard-timeout-ms",
            "9000",
            "--audit-stride",
            "10",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(opts.fault_seed, Some(7));
        assert_eq!(opts.hard_timeout_ms, Some(9000));
        assert_eq!(opts.audit_stride, Some(10));
        assert!(parse(&v(&["random", "8", "--fault-seed", "x"])).is_err());
    }

    #[test]
    fn checkpoint_flags_parse() {
        let (_, opts) = parse(&v(&[
            "random",
            "64",
            "--checkpoint-out",
            "run.ckpt",
            "--checkpoint-interval-ms",
            "500",
            "--checkpoint-keep",
            "5",
            "--resume",
            "old.ckpt",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(opts.checkpoint_out.as_deref(), Some("run.ckpt"));
        assert_eq!(opts.checkpoint_interval_ms, Some(500));
        assert_eq!(opts.checkpoint_keep, Some(5));
        assert_eq!(opts.resume.as_deref(), Some("old.ckpt"));
        let (_, opts) = parse(&v(&["random", "64"])).unwrap().unwrap();
        assert_eq!(opts.checkpoint_out, None);
        assert_eq!(opts.resume, None);
        assert!(parse(&v(&["random", "8", "--checkpoint-keep", "x"])).is_err());
        assert!(parse(&v(&["random", "8", "--resume"])).is_err());
    }

    #[test]
    fn serve_passes_arguments_through() {
        let (cmd, _) = parse(&v(&["serve", "--port", "8080", "--spool", "sp"]))
            .unwrap()
            .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                args: v(&["--port", "8080", "--spool", "sp"])
            }
        );
        // Even flags that look like solve options pass through untouched.
        let (cmd, _) = parse(&v(&["serve", "--help"])).unwrap().unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                args: v(&["--help"])
            }
        );
    }

    #[test]
    fn problem_json_flag_parses() {
        let (_, opts) = parse(&v(&["solve", "p.json", "--problem-json"]))
            .unwrap()
            .unwrap();
        assert!(opts.problem_json);
        let (_, opts) = parse(&v(&["solve", "p.qubo"])).unwrap().unwrap();
        assert!(!opts.problem_json);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&v(&["frobnicate"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&v(&["solve"])).unwrap_err().contains("missing"));
        assert!(parse(&v(&["random", "abc"]))
            .unwrap_err()
            .contains("bad bit count"));
        assert!(parse(&v(&["random", "8", "--seed"]))
            .unwrap_err()
            .contains("missing"));
        assert!(parse(&v(&["random", "8", "--wat"]))
            .unwrap_err()
            .contains("unknown option"));
    }
}
