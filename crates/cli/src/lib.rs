//! # gossip-cli
//!
//! Command-line interface to the `dynamic-rumor` workspace — simulate
//! rumor-spreading protocols on static and adaptive dynamic networks,
//! inspect conductance/diligence profiles, audit the Theorem 1.1 / 1.3
//! stopping rules, and regenerate any experiment of the paper
//! reproduction.
//!
//! ```text
//! $ gossip run --family dynamic-star --n 200 --protocol sync
//! $ gossip bounds --family absolute-diligent --n 120 --rho 0.125
//! $ gossip experiment --id E7 --quick
//! ```
//!
//! The binary is a thin shim over [`dispatch`]; all command logic lives
//! in the library so it can be unit-tested.

//!
//! See the workspace `README.md` (repo root) for the crate map and the
//! window / event-stream engine duality.

// `deny` rather than `forbid`: the signal module carries the one
// scoped exemption (raw `signal(2)` registration for graceful
// shutdown); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod error;
pub mod family;
pub mod proto;
#[allow(unsafe_code)]
pub mod signal;

pub use args::Args;
pub use error::CliError;

/// Parses raw arguments and runs the corresponding command, returning the
/// report to print.
///
/// # Errors
///
/// [`CliError::Usage`] for unknown commands/flags and malformed values;
/// [`CliError::Graph`] / [`CliError::Sim`] when construction or
/// simulation fails.
pub fn dispatch<I: IntoIterator<Item = String>>(raw: I) -> Result<String, CliError> {
    let mut raw: Vec<String> = raw.into_iter().collect();
    // `scenario` and `net` take positional operands (`scenario run
    // <file>`, `net run <file>`), which the flag parser does not model;
    // peel them off before Args::parse.
    // `submit` takes one positional operand: the spec file to send.
    if raw.first().map(String::as_str) == Some("submit") {
        let mut it = raw.drain(..).skip(1).peekable();
        let file = match it.peek() {
            Some(tok) if !tok.starts_with("--") => it.next(),
            _ => None,
        };
        let args = Args::parse(it)?;
        return commands::submit(file.as_deref(), &args);
    }
    if let Some(cmd @ ("scenario" | "net")) = raw.first().map(String::as_str) {
        let cmd = cmd.to_string();
        let mut it = raw.drain(..).skip(1).peekable();
        let action = match it.peek() {
            Some(tok) if !tok.starts_with("--") => it.next(),
            _ => None,
        };
        let file = match it.peek() {
            Some(tok) if !tok.starts_with("--") => it.next(),
            _ => None,
        };
        let args = Args::parse(it)?;
        return if cmd == "scenario" {
            commands::scenario(action.as_deref(), file.as_deref(), &args)
        } else {
            commands::net(action.as_deref(), file.as_deref(), &args)
        };
    }
    let args = Args::parse(raw)?;
    match args.command() {
        None | Some("help") => Ok(commands::help()),
        Some("list") => commands::list(&args),
        Some("run") => commands::run(&args),
        Some("profile") => commands::profile(&args),
        Some("bounds") => commands::bounds(&args),
        Some("trace") => commands::trace(&args),
        Some("experiment") => commands::experiment(&args),
        Some("serve") => commands::serve(&args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown command `{other}` (run `gossip help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: &str) -> Result<String, CliError> {
        dispatch(s.split_whitespace().map(String::from))
    }

    #[test]
    fn no_args_prints_help() {
        assert!(run("").unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run("frobnicate").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn end_to_end_run() {
        let out = run("run --family cycle --n 12 --trials 4 --seed 9").unwrap();
        assert!(out.contains("completed : 4/4"), "{out}");
    }

    #[test]
    fn scenario_list_and_init() {
        let out = run("scenario list").unwrap();
        assert!(
            out.contains("dynamic-star") && out.contains("event+window"),
            "{out}"
        );
        let template = run("scenario init").unwrap();
        assert!(template.contains("[sweep]"), "{template}");
    }

    #[test]
    fn scenario_end_to_end_from_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("gossip_cli_scenario_test.toml");
        let path_str = path.to_str().unwrap().to_string();
        let spec = "\
name = \"cli-e2e\"\n\n[family]\nkind = \"complete\"\n\n[protocol]\nkind = \"async\"\n\n\
[sweep]\nsizes = [16]\ntrials = 5\nseed = 3\n";
        std::fs::write(&path, spec).unwrap();
        let out = run(&format!("scenario run {path_str}")).unwrap();
        assert!(out.contains("cli-e2e") && out.contains("5/5"), "{out}");
        let out = run(&format!("scenario run {path_str} --engine window")).unwrap();
        assert!(out.contains("engine    : window"), "{out}");
        let out = run(&format!("scenario run {path_str} --json")).unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        let out = run(&format!("scenario check {path_str}")).unwrap();
        assert!(out.starts_with("ok:"), "{out}");
        // --output jsonl streams every trial of the sweep to one file.
        let jsonl = dir.join("gossip_cli_scenario_test.jsonl");
        let jsonl_str = jsonl.to_str().unwrap();
        let out = run(&format!(
            "scenario run {path_str} --output jsonl {jsonl_str}"
        ))
        .unwrap();
        assert!(out.contains("wrote 5 trial records"), "{out}");
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(
            text.lines().all(|l| l.contains("\"spread_time\"")),
            "{text}"
        );
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scenario_journal_and_resume_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("gossip_cli_journal_test.toml");
        let path_str = path.to_str().unwrap().to_string();
        let spec = "\
name = \"cli-journal\"\n\n[family]\nkind = \"complete\"\n\n[protocol]\nkind = \"async\"\n\n\
[sweep]\nsizes = [16, 24]\ntrials = 4\nseed = 3\n\n[faults]\ndrop = 0.1\nseed = 5\n";
        std::fs::write(&path, spec).unwrap();
        let journal = dir.join("gossip_cli_journal_test.jsonl");
        let journal_str = journal.to_str().unwrap().to_string();
        let full = run(&format!("scenario run {path_str} --journal {journal_str}")).unwrap();
        assert!(full.contains("cli-journal"), "{full}");

        // Keep only the header + first cell, as a crash would, then
        // resume from the journal alone (embedded spec): the report is
        // identical to the uninterrupted run.
        let text = std::fs::read_to_string(&journal).unwrap();
        let cut: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(cut.len() < text.len());
        std::fs::write(&journal, cut).unwrap();
        let resumed = run(&format!("scenario run --resume {journal_str}")).unwrap();
        assert_eq!(resumed, full);
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn net_end_to_end_from_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("gossip_cli_net_test.toml");
        let path_str = path.to_str().unwrap().to_string();
        let spec = "\
name = \"cli-net-e2e\"\n\n[family]\nkind = \"complete\"\n\n[protocol]\nkind = \"async\"\n\n\
[sweep]\nsizes = [24]\ntrials = 5\nseed = 3\n\n[net]\ngroups = 2\n";
        std::fs::write(&path, spec).unwrap();
        let out = run(&format!("net check {path_str}")).unwrap();
        assert!(out.starts_with("ok:") && out.contains("2 groups"), "{out}");
        let out = run(&format!("net run {path_str}")).unwrap();
        assert!(out.contains("engine    : net/local"), "{out}");
        assert!(out.contains("5/5"), "{out}");
        assert!(
            out.contains("messages  : ") && out.contains("/node"),
            "{out}"
        );
        // Overrides + JSONL streaming.
        let jsonl = dir.join("gossip_cli_net_test.jsonl");
        let jsonl_str = jsonl.to_str().unwrap();
        let out = run(&format!(
            "net run {path_str} --groups 3 --delivery local --output jsonl {jsonl_str}"
        ))
        .unwrap();
        assert!(out.contains("wrote 5 trial records"), "{out}");
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(text.lines().count(), 5);
        // `scenario run` takes the same path: the [net] table runs live.
        let out = run(&format!(
            "scenario run {path_str} --output jsonl {jsonl_str}"
        ))
        .unwrap();
        assert!(out.contains("engine    : net/local"), "{out}");
        assert_eq!(std::fs::read_to_string(&jsonl).unwrap(), text);
        let _ = std::fs::remove_file(&jsonl);
        // A dynamic family is rejected with a targeted message.
        let bad = "\
name = \"cli-net-bad\"\n\n[family]\nkind = \"dynamic-star\"\n\n[protocol]\nkind = \"async\"\n\n\
[sweep]\nsizes = [24]\n\n[net]\n";
        std::fs::write(&path, bad).unwrap();
        let err = run(&format!("net run {path_str}")).unwrap_err();
        assert!(err.to_string().contains("dynamic"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn submit_round_trips_through_a_daemon() {
        let dir = std::env::temp_dir();
        let store = dir.join(format!("gossip_cli_serve_store_{}", std::process::id()));
        let handle = gossip_serve::Server::bind("127.0.0.1:0", &store)
            .unwrap()
            .spawn()
            .unwrap();
        let path = dir.join("gossip_cli_serve_test.toml");
        let path_str = path.to_str().unwrap().to_string();
        let spec = "\
name = \"cli-serve\"\n\n[family]\nkind = \"complete\"\n\n[protocol]\nkind = \"async\"\n\n\
[sweep]\nsizes = [16]\ntrials = 4\nseed = 3\n";
        std::fs::write(&path, spec).unwrap();

        let cmd = format!("submit {path_str} --addr {}", handle.addr());
        let first = run(&cmd).unwrap();
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        let second = run(&cmd).unwrap();
        assert!(second.contains("\"cache\":\"hit\""), "{second}");
        // Past the header, the responses are identical — and the record
        // lines match an offline `scenario run --output jsonl`.
        let body = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        assert_eq!(body(&first), body(&second));
        let jsonl = dir.join("gossip_cli_serve_test.jsonl");
        run(&format!(
            "scenario run {path_str} --output jsonl {}",
            jsonl.to_str().unwrap()
        ))
        .unwrap();
        let offline = std::fs::read_to_string(&jsonl).unwrap();
        let records: Vec<String> = body(&second)
            .into_iter()
            .filter(|l| !l.starts_with("{\"kind\":"))
            .collect();
        assert_eq!(records, offline.lines().collect::<Vec<_>>());
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn submit_usage_errors() {
        assert_eq!(run("submit").unwrap_err().exit_code(), 2);
        assert_eq!(
            run("submit spec.toml --frobnicate")
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn net_usage_errors() {
        assert_eq!(run("net").unwrap_err().exit_code(), 2);
        assert_eq!(run("net frobnicate").unwrap_err().exit_code(), 2);
        assert_eq!(run("net run").unwrap_err().exit_code(), 2);
        assert_eq!(run("net run /nonexistent.toml").unwrap_err().exit_code(), 1);
    }

    #[test]
    fn scenario_usage_errors() {
        assert_eq!(run("scenario").unwrap_err().exit_code(), 2);
        assert_eq!(run("scenario frobnicate").unwrap_err().exit_code(), 2);
        assert_eq!(run("scenario run").unwrap_err().exit_code(), 2);
        // Missing file is a runtime error, not usage.
        assert_eq!(
            run("scenario run /nonexistent/spec.toml")
                .unwrap_err()
                .exit_code(),
            1
        );
    }
}
