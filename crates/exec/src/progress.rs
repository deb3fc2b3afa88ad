//! Live progress/ETA reporting for a running grid, fed from the
//! engine's event channel. One sticky stderr line on a TTY; throttled
//! plain lines otherwise (CI logs).

use std::io::{IsTerminal as _, Write as _};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// Events the workers feed the reporter.
#[derive(Debug)]
pub(crate) enum Event {
    /// A cell started executing.
    Started,
    /// A cell finished (label reported on failure only).
    Finished {
        /// Cell label, for the failure line.
        label: String,
        /// Whether the cell succeeded.
        ok: bool,
        /// Wall milliseconds the cell took.
        duration_ms: u64,
    },
}

/// Consume events until every sender is dropped, painting progress to
/// stderr. `total` counts scheduled cells (resumed cells are excluded —
/// they are reported once up front).
pub(crate) fn run_reporter(total: usize, resumed: usize, rx: &Receiver<Event>) {
    let tty = std::io::stderr().is_terminal();
    let start = Instant::now();
    let mut done = 0usize;
    let mut failed = 0usize;
    let mut running = 0usize;
    let mut last_paint = Instant::now() - Duration::from_secs(10);
    let mut cell_ms_total = 0u64;
    if resumed > 0 {
        eprintln!("[exec] resume: {resumed} cells already in manifest, {total} to run");
    }
    let paint = |done: usize,
                 failed: usize,
                 running: usize,
                 cell_ms: u64,
                 force: bool,
                 last: &mut Instant| {
        let min_gap = if tty {
            Duration::from_millis(200)
        } else {
            Duration::from_secs(2)
        };
        if !force && last.elapsed() < min_gap {
            return;
        }
        *last = Instant::now();
        let elapsed = start.elapsed().as_secs_f64();
        let eta = if done > 0 {
            let remaining = total.saturating_sub(done);
            format!("{:.0}s", elapsed / done as f64 * remaining as f64)
        } else {
            "?".to_string()
        };
        let mean = if done > 0 {
            cell_ms as f64 / done as f64 / 1000.0
        } else {
            0.0
        };
        let line = format!(
            "[exec] {done}/{total} done | {running} running | {failed} failed | \
             {mean:.2}s/cell | {elapsed:.1}s elapsed | eta {eta}"
        );
        if tty {
            eprint!("\r{line:<100}");
            let _ = std::io::stderr().flush();
        } else {
            eprintln!("{line}");
        }
    };
    while let Ok(ev) = rx.recv() {
        match ev {
            Event::Started => running += 1,
            Event::Finished {
                label,
                ok,
                duration_ms,
            } => {
                running = running.saturating_sub(1);
                done += 1;
                cell_ms_total += duration_ms;
                if !ok {
                    failed += 1;
                    if tty {
                        eprintln!();
                    }
                    eprintln!("[exec] FAILED {label}");
                }
            }
        }
        paint(done, failed, running, cell_ms_total, false, &mut last_paint);
    }
    if total > 0 {
        paint(done, failed, running, cell_ms_total, true, &mut last_paint);
        if tty {
            eprintln!();
        }
    }
}
