//! Command-line front end: check, type and run record-calculus programs.
//!
//! ```text
//! rowpoly check <dir|files...> [options]   batch type-check programs
//!     --jobs N          worker threads; `0` or omitted auto-detects the
//!                       host's available parallelism
//!     --no-cache        disable the persistent inference cache
//!     --cache-dir D     cache location (default .rowpoly-cache)
//!     --sat-budget N    CDCL step budget per SAT check (timeout verdicts)
//!     --compaction M    stale-flag projection: aggressive (default) | perdef
//!     --no-fields       disable field tracking (Fig. 2 baseline)
//!     --explain         append the minimal-unsat-core proof summary to errors
//!     --progress        live progress line on stderr (TTY only; off with --json)
//!     --profile F       write the concurrency profile (per-worker
//!                       utilization, lock waits, critical path) to F as JSON;
//!                       F with a `.trace.json` twin gets the Chrome trace
//!     --json            machine-readable report (includes cache/steal stats
//!                       and per-error proof cores)
//! rowpoly profile <dir|files...> [options] check + print the profile report
//!     accepts the same options as check, plus:
//!     --trace F         write the per-worker Chrome trace to F
//!     --json            print the profile as JSON instead of text
//! rowpoly serve [--stdio|--json-rpc]       persistent incremental daemon
//!     --stdio           speak the Language Server Protocol on stdio (default)
//!     --json-rpc        newline-delimited JSON protocol (tests, scripting)
//!     --no-cache        do not read/write the persistent inference cache
//!     --cache-dir D     cache location (default .rowpoly-cache)
//!     --sat-budget N    CDCL step budget per SAT check
//!     --no-fields       disable field tracking
//!     --memo-max-bytes N  verdict-store byte bound, N > 0 (estimate; default 64 MiB)
//! rowpoly explain <file|->                 first type error with its checked
//!                                          minimal-core evidence (`-`: stdin)
//! rowpoly types <file> [--flags]           print every definition's scheme
//! rowpoly run   <file> [--fuel N]          type-check then evaluate `main`
//! rowpoly compare <file>                   flow vs Rémy vs flow-free verdicts
//! ```
//!
//! `check` accepts any mix of `.rp` files and directories (a directory
//! means its `*.rp` files, sorted); the exit code is non-zero iff any
//! definition fails. Its text report is deterministic — byte-identical
//! across `--jobs` settings and cache states.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rowpoly::batch::{check_sources, BatchOptions, FileInput};
use rowpoly::core::{hm, remy::RemyInfer, Compaction, Options, Session};
use rowpoly::eval::eval_program;
use rowpoly::lang::parse_program;

/// The counting allocator (off until `ROWPOLY_MEM=1` or a command
/// enables accounting; one relaxed load per allocation when off).
#[global_allocator]
static ALLOC: rowpoly::obs::CountingAlloc = rowpoly::obs::CountingAlloc;

/// The `--help` text. Kept in sync with the module doc above.
const HELP: &str = "\
rowpoly check <dir|files...> [options]   batch type-check programs
    --jobs N          worker threads; `0` or omitted auto-detects the
                      host's available parallelism
    --no-cache        disable the persistent inference cache
    --cache-dir D     cache location (default .rowpoly-cache)
    --sat-budget N    CDCL step budget per SAT check (timeout verdicts)
    --compaction M    stale-flag projection: aggressive (default) | perdef
    --no-fields       disable field tracking (Fig. 2 baseline)
    --explain         append the minimal-unsat-core proof summary to errors
    --progress        live progress line on stderr (TTY only; off with --json)
    --profile F       write the concurrency profile to F as JSON
                      (plus a `.trace.json` Chrome-trace twin)
    --json            machine-readable report
rowpoly profile <dir|files...> [options] check + print the profile report
    accepts the same options as check, plus:
    --trace F         write the per-worker Chrome trace to F
    --json            print the profile as JSON instead of text
rowpoly serve [--stdio|--json-rpc]       persistent incremental daemon
    --stdio           Language Server Protocol on stdio (default)
    --json-rpc        newline-delimited JSON protocol (tests, scripting)
    --no-cache        do not read/write the persistent inference cache
    --cache-dir D     cache location (default .rowpoly-cache)
    --sat-budget N    CDCL step budget per SAT check
    --no-fields       disable field tracking
    --memo-max-bytes N  verdict-store byte bound, N > 0 (estimate; default 64 MiB)
rowpoly explain <file|->                 first type error with its checked
                                         minimal-core evidence (`-`: stdin)
rowpoly types <file> [--flags]           print every definition's scheme
rowpoly run   <file> [--fuel N]          type-check then evaluate `main`
rowpoly compare <file>                   flow vs Remy vs flow-free verdicts
";

fn main() -> ExitCode {
    rowpoly::obs::mem::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: rowpoly <check|explain|types|run|compare> <paths...> [options]");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "check" => cmd_check(&args[1..]),
        "profile" => cmd_profile(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "explain" | "types" | "run" | "compare" => cmd_single_file(cmd, &args[1..]),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "unknown command `{other}`; use check, profile, serve, explain, types, run or compare"
            );
            ExitCode::from(2)
        }
    }
}

/// Parses `--opt value` from an argument list.
fn opt_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Expands a path argument: a directory contributes its `*.rp` files in
/// sorted order, anything else is taken as a file.
fn expand(path: &str, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let p = Path::new(path);
    if p.is_dir() {
        let mut found = Vec::new();
        let entries =
            std::fs::read_dir(p).map_err(|e| format!("cannot read directory {path}: {e}"))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read directory {path}: {e}"))?;
            let file = entry.path();
            if file.extension().is_some_and(|ext| ext == "rp") {
                found.push(file);
            }
        }
        found.sort();
        out.extend(found);
        Ok(())
    } else {
        out.push(p.to_path_buf());
        Ok(())
    }
}

/// Everything the batch commands (`check`, `profile`) parse from their
/// argument lists.
struct BatchArgs {
    inputs: Vec<FileInput>,
    options: BatchOptions,
    json: bool,
    /// `--profile F`: write the profile JSON here.
    profile_out: Option<PathBuf>,
    /// `--trace F`: write the per-worker Chrome trace here.
    trace_out: Option<PathBuf>,
}

/// Parses the shared batch argument surface; `usage` names the calling
/// subcommand for diagnostics.
fn parse_batch_args(args: &[String], usage: &str) -> Result<BatchArgs, ExitCode> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    let value_opts = [
        "--jobs",
        "--cache-dir",
        "--sat-budget",
        "--compaction",
        "--profile",
        "--trace",
    ];
    while i < args.len() {
        let a = &args[i];
        if value_opts.contains(&a.as_str()) {
            i += 2;
            continue;
        }
        if a.starts_with("--") {
            i += 1;
            continue;
        }
        if let Err(e) = expand(a, &mut paths) {
            eprintln!("error: {e}");
            return Err(ExitCode::from(2));
        }
        i += 1;
    }
    if paths.is_empty() {
        eprintln!("usage: {usage}");
        return Err(ExitCode::from(2));
    }

    let jobs: usize = match opt_value(args, "--jobs") {
        None => 0,
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("error: --jobs expects a number, got `{v}`");
                return Err(ExitCode::from(2));
            }
        },
    };
    let sat_budget: Option<u64> = match opt_value(args, "--sat-budget") {
        None => None,
        Some(v) => match v.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("error: --sat-budget expects a number, got `{v}`");
                return Err(ExitCode::from(2));
            }
        },
    };
    let compaction = match opt_value(args, "--compaction") {
        None | Some("aggressive") => Compaction::Aggressive,
        Some("perdef") => Compaction::PerDef,
        Some(other) => {
            eprintln!("error: --compaction expects `aggressive` or `perdef`, got `{other}`");
            return Err(ExitCode::from(2));
        }
    };

    let json = args.iter().any(|a| a == "--json");
    let profile_out = opt_value(args, "--profile").map(PathBuf::from);
    let options = BatchOptions {
        opts: Options {
            track_fields: !args.iter().any(|a| a == "--no-fields"),
            sat_budget,
            compaction,
            ..Options::default()
        },
        jobs,
        use_cache: !args.iter().any(|a| a == "--no-cache"),
        cache_dir: opt_value(args, "--cache-dir")
            .map(PathBuf::from)
            .unwrap_or_else(rowpoly::batch::cache::default_dir),
        explain: args.iter().any(|a| a == "--explain"),
        progress: args.iter().any(|a| a == "--progress") && !json,
        profile: profile_out.is_some(),
    };

    let mut inputs = Vec::with_capacity(paths.len());
    for path in paths {
        let display = path.display().to_string();
        match std::fs::read_to_string(&path) {
            Ok(source) => inputs.push(FileInput {
                path: display,
                source,
            }),
            Err(e) => {
                eprintln!("error: cannot read {display}: {e}");
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok(BatchArgs {
        inputs,
        options,
        json,
        profile_out,
        trace_out: opt_value(args, "--trace").map(PathBuf::from),
    })
}

/// The Chrome-trace twin of a profile JSON path: `out.json` →
/// `out.trace.json`, anything else gets `.trace.json` appended.
fn trace_twin(profile: &Path) -> PathBuf {
    let s = profile.display().to_string();
    match s.strip_suffix(".json") {
        Some(stem) => PathBuf::from(format!("{stem}.trace.json")),
        None => PathBuf::from(format!("{s}.trace.json")),
    }
}

/// Writes the profile JSON to `out` and the Chrome trace to its
/// `.trace.json` twin.
fn write_profile(
    out: &Path,
    profile: &rowpoly::batch::profile::ProfileReport,
) -> Result<(), String> {
    std::fs::write(out, profile.to_json().render() + "\n")
        .map_err(|e| format!("cannot write profile {}: {e}", out.display()))?;
    let trace = trace_twin(out);
    profile
        .write_trace(&trace)
        .map_err(|e| format!("cannot write trace {}: {e}", trace.display()))?;
    eprintln!(
        "profile written to {} (trace: {})",
        out.display(),
        trace.display()
    );
    Ok(())
}

fn cmd_check(args: &[String]) -> ExitCode {
    let parsed = match parse_batch_args(
        args,
        "rowpoly check <dir|files...> [--jobs N] [--no-cache] [--profile F] [--json]",
    ) {
        Ok(p) => p,
        Err(code) => return code,
    };

    let report = check_sources(parsed.inputs, &parsed.options);
    if parsed.json {
        println!("{}", report.to_json().render());
    } else {
        print!("{}", report.render());
    }
    if let (Some(out), Some(profile)) = (&parsed.profile_out, &report.profile) {
        // The summary goes to stderr so the deterministic report on
        // stdout stays byte-identical with and without --profile.
        eprint!("{}", profile.render_text());
        if let Err(e) = write_profile(out, profile) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `rowpoly profile`: run the batch with profiling on and report the
/// concurrency profile itself (text or `--json`), with an optional
/// Chrome trace. The type-checking verdict still decides the exit
/// code, so `profile` can replace `check` in scripts.
fn cmd_profile(args: &[String]) -> ExitCode {
    let mut parsed = match parse_batch_args(
        args,
        "rowpoly profile <dir|files...> [--jobs N] [--trace F] [--json]",
    ) {
        Ok(p) => p,
        Err(code) => return code,
    };
    parsed.options.profile = true;

    let report = check_sources(parsed.inputs, &parsed.options);
    let profile = report
        .profile
        .as_ref()
        .expect("profiling was requested for this run");
    if parsed.json {
        println!("{}", profile.to_json().render());
    } else {
        print!("{}", profile.render_text());
    }
    if let Some(out) = &parsed.profile_out {
        if let Err(e) = write_profile(out, profile) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(trace) = &parsed.trace_out {
        if let Err(e) = profile.write_trace(trace) {
            eprintln!("error: cannot write trace {}: {e}", trace.display());
            return ExitCode::from(2);
        }
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `rowpoly serve`: run the incremental daemon until the client closes
/// the session. `--stdio` (the default) speaks LSP; `--json-rpc`
/// speaks the newline-delimited protocol.
fn cmd_serve(args: &[String]) -> ExitCode {
    let json_rpc = args.iter().any(|a| a == "--json-rpc");
    if json_rpc && args.iter().any(|a| a == "--stdio") {
        eprintln!("error: --stdio and --json-rpc are mutually exclusive");
        return ExitCode::from(2);
    }
    let sat_budget: Option<u64> = match opt_value(args, "--sat-budget") {
        None => None,
        Some(v) => match v.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("error: --sat-budget expects a number, got `{v}`");
                return ExitCode::from(2);
            }
        },
    };
    let memo_max_bytes: u64 = match opt_value(args, "--memo-max-bytes") {
        None => rowpoly::serve::ServeConfig::default().memo_max_bytes,
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: --memo-max-bytes expects a positive number, got `{v}`");
                return ExitCode::from(2);
            }
        },
    };
    let config = rowpoly::serve::ServeConfig {
        opts: Options {
            track_fields: !args.iter().any(|a| a == "--no-fields"),
            sat_budget,
            ..Options::default()
        },
        cache_dir: (!args.iter().any(|a| a == "--no-cache")).then(|| {
            opt_value(args, "--cache-dir")
                .map(PathBuf::from)
                .unwrap_or_else(rowpoly::batch::cache::default_dir)
        }),
        memo_max_bytes,
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let result = if json_rpc {
        rowpoly::serve::rpc::serve(stdin.lock(), stdout.lock(), config)
    } else {
        rowpoly::serve::lsp::serve(stdin.lock(), stdout.lock(), config)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve session failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads a single-file command's input: a path, or `-` for stdin.
fn read_input(file: &str) -> std::io::Result<String> {
    if file == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)?;
        Ok(buf)
    } else {
        std::fs::read_to_string(file)
    }
}

fn cmd_single_file(cmd: &str, args: &[String]) -> ExitCode {
    let Some(file) = args.first() else {
        eprintln!("usage: rowpoly {cmd} <file|-> [options]");
        return ExitCode::from(2);
    };
    let source = match read_input(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let show_flags = args.iter().any(|a| a == "--flags");
    let no_fields = args.iter().any(|a| a == "--no-fields");
    let fuel: u64 = opt_value(args, "--fuel")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000);

    let session = Session::new(Options {
        track_fields: !no_fields,
        ..Options::default()
    });

    match cmd {
        "explain" => match session.infer_source(&source) {
            Ok(report) => {
                println!(
                    "no type errors: {} definition{} check",
                    report.defs.len(),
                    if report.defs.len() == 1 { "" } else { "s" }
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprint!("{}", e.render_explained(&source));
                ExitCode::FAILURE
            }
        },
        "types" => match session.infer_source(&source) {
            Ok(report) => {
                for d in &report.defs {
                    if show_flags {
                        println!("{} : {}", d.name, d.render_with_flow());
                    } else {
                        println!("{} : {}", d.name, d.render(false));
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprint!("{}", e.render(&source));
                ExitCode::FAILURE
            }
        },
        "run" => {
            let program = match parse_program(&source) {
                Ok(p) => p,
                Err(d) => {
                    eprint!("{}", d.render(&source));
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = session.infer_program(&program) {
                eprint!("{}", e.to_diag().render(&source));
                return ExitCode::FAILURE;
            }
            match eval_program(&program, fuel) {
                Ok(v) => {
                    println!("{v}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("runtime error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "compare" => {
            let verdict = |ok: bool| if ok { "accepts" } else { "rejects" };
            println!(
                "flow (this paper)          {}",
                verdict(session.infer_source(&source).is_ok())
            );
            println!(
                "Remy Pre/Abs baseline      {}",
                verdict(RemyInfer::new().infer_source(&source).is_ok())
            );
            println!(
                "Fig. 2 (no field tracking) {}",
                verdict(hm::infer_source(&source).is_ok())
            );
            ExitCode::SUCCESS
        }
        _ => unreachable!("dispatched in main"),
    }
}
