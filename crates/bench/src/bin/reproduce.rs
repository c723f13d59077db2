//! Runs the paper's experiments (all figures and tables).
//!
//! `reproduce` runs every experiment in `experiments::NAMES` order,
//! prints the reports and writes them to `experiments_output.md` in the
//! current directory, in the format EXPERIMENTS.md records.
//! `reproduce NAME...` prints only the named reports and writes no file;
//! an unknown name exits 2 and lists the known ones.
//!
//! Experiments share one [`tcm_sim::Session`] (alone IPCs computed once)
//! and run their grids as sweeps on worker threads; the trailing engine
//! line reports cells simulated, worker count, and sim-cycles/sec.
//!
//! Scale via TCM_CYCLES / TCM_WORKLOADS / TCM_FULL=1; a value that is
//! not a positive integer exits 2.

use std::io::Write;
use std::process::ExitCode;
use tcm_bench::{experiments, Scale};
use tcm_sim::Session;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names.iter().find(|n| !experiments::NAMES.contains(&n.as_str())) {
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
    let session = Session::baseline(scale.horizon);
    let run = |name: &str| experiments::run(name, &scale, &session).expect("a known name");
    if !names.is_empty() {
        for name in &names {
            println!("{}", run(name).render());
        }
        return ExitCode::SUCCESS;
    }

    let mut out = format!(
        "# TCM reproduction — experiment outputs\n\nScale: {} cycles per run, {} workloads \
         per intensity category, {} threads.\n\n",
        scale.horizon, scale.workloads_per_category, scale.threads
    );
    let t0 = std::time::Instant::now();
    for name in experiments::NAMES {
        let rendered = run(name).render();
        println!("{rendered}");
        out.push_str(&rendered);
        out.push('\n');
    }
    let engine = session.stats_line();
    println!("{engine}");
    out.push_str(&format!("\n{engine}\nTotal wall time: {:?}\n", t0.elapsed()));
    let mut file = std::fs::File::create("experiments_output.md").expect("writable cwd");
    file.write_all(out.as_bytes()).expect("write report");
    eprintln!("{engine}");
    eprintln!("wrote experiments_output.md in {:?}", t0.elapsed());
    ExitCode::SUCCESS
}
