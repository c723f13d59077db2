//! Runs the paper's experiments (all figures and tables).
//!
//! `reproduce` runs every experiment in `experiments::NAMES` order,
//! prints the reports and writes them to `experiments_output.md` in the
//! current directory, in the format EXPERIMENTS.md records.
//! `reproduce NAME...` prints only the named reports and writes no file;
//! an unknown name exits 2 and lists the known ones. A reader that
//! closes the pipe early (`reproduce | head -1`) ends the run quietly
//! with exit 0.
//!
//! Experiments share one [`tcm_sim::Session`] (alone IPCs computed once)
//! and run their grids as sweeps on worker threads; the trailing engine
//! line reports cells simulated, worker count, and sim-cycles/sec.
//!
//! Scale via TCM_CYCLES / TCM_WORKLOADS / TCM_FULL=1; a value that is
//! not a positive integer exits 2.

use std::io::{self, Write};
use std::process::ExitCode;
use tcm_bench::{experiments, Scale};
use tcm_sim::Session;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names
        .iter()
        .find(|n| !experiments::NAMES.contains(&n.as_str()))
    {
        eprintln!(
            "reproduce: unknown experiment {unknown:?}; expected any of: {}",
            experiments::NAMES.join(" ")
        );
        return ExitCode::from(2);
    }
    let scale = match Scale::from_env() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("reproduce: {e}");
            return ExitCode::from(2);
        }
    };
    match report(&names, &scale) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed the pipe (`reproduce | head -1`): it has
        // all it wanted.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reproduce: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the named reports, or every report plus the engine line and
/// then writes `experiments_output.md` when `names` is empty.
fn report(names: &[String], scale: &Scale) -> io::Result<()> {
    let session = Session::baseline(scale.horizon);
    let run = |name: &str| experiments::run(name, scale, &session).expect("a known name");
    let mut stdout = io::stdout().lock();
    if !names.is_empty() {
        for name in names {
            writeln!(stdout, "{}", run(name).render())?;
        }
        return Ok(());
    }

    let mut out = format!(
        "# TCM reproduction — experiment outputs\n\nScale: {} cycles per run, {} workloads \
         per intensity category, {} threads.\n\n",
        scale.horizon, scale.workloads_per_category, scale.threads
    );
    let t0 = std::time::Instant::now();
    for name in experiments::NAMES {
        let rendered = run(name).render();
        writeln!(stdout, "{rendered}")?;
        out.push_str(&rendered);
        out.push('\n');
    }
    let engine = session.stats_line();
    writeln!(stdout, "{engine}")?;
    out.push_str(&format!(
        "\n{engine}\nTotal wall time: {:?}\n",
        t0.elapsed()
    ));
    std::fs::write("experiments_output.md", out)?;
    eprintln!("{engine}");
    eprintln!("wrote experiments_output.md in {:?}", t0.elapsed());
    Ok(())
}
