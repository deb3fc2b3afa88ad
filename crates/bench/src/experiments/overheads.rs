//! Tables III and IV: storage-overhead accounting. These are pure
//! arithmetic over the policy configurations, so their plans have no
//! simulation cells: assembly computes and writes the table.

use chrome_core::{Chrome, ChromeConfig};
use chrome_sim::{LlcPolicy, SimConfig};

use super::ExperimentPlan;
use crate::registry::build_any_policy;
use crate::runner::RunParams;
use crate::table::TableWriter;

/// Table III: CHROME storage-overhead breakdown for the 4-core, 12MB,
/// 12-way LLC configuration. Its assembly panics when
/// `results/tab03_overhead.tsv` cannot be written.
pub fn tab03(_: &RunParams) -> ExperimentPlan {
    ExperimentPlan {
        name: "tab03_overhead",
        cells: Vec::new(),
        assemble: Box::new(|_| {
            write_tab03();
            Vec::new()
        }),
    }
}

/// Print Table III and write its TSV, whose rows are `name\tKB` with a
/// closing `TOTAL` row and no header.
fn write_tab03() {
    let cfg = SimConfig::with_cores(4);
    let llc_blocks = cfg.llc().sets() * cfg.llc_ways;
    let chrome = Chrome::new(ChromeConfig::default());
    let overhead = chrome.storage_overhead(llc_blocks);
    println!(
        "{}",
        overhead.render("Table III: CHROME storage overhead (4-core, 12MB LLC)")
    );
    println!(
        "paper total: 92.70 KB; measured: {:.2} KB",
        overhead.total_kib()
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(
        "results/tab03_overhead.tsv",
        overhead
            .iter()
            .map(|(n, b)| format!("{n}\t{:.2}", b as f64 / 8.0 / 1024.0))
            .collect::<Vec<_>>()
            .join("\n")
            + &format!("\nTOTAL\t{:.2}\n", overhead.total_kib()),
    )
    .expect("write tsv");
}

/// Table IV: storage overhead across schemes (4-core, 12-way, 12MB
/// LLC), with the holistic / concurrency-aware capability matrix.
pub fn tab04(_: &RunParams) -> ExperimentPlan {
    ExperimentPlan {
        name: "tab04_overhead_cmp",
        cells: Vec::new(),
        assemble: Box::new(|_| vec![tab04_table()]),
    }
}

fn tab04_table() -> TableWriter {
    let cfg = SimConfig::with_cores(4);
    let llc_blocks = cfg.llc().sets() * cfg.llc_ways;
    let mut table = TableWriter::new(
        "tab04_overhead_cmp",
        &[
            "scheme",
            "holistic",
            "concurrency_aware",
            "overhead_kb",
            "paper_kb",
        ],
    );
    let rows: [(&str, &str, &str, f64); 5] = [
        ("Hawkeye", "No", "No", 146.0),
        ("Glider", "No", "No", 254.0),
        ("Mockingjay", "Yes", "No", 170.6),
        ("CARE", "No", "Yes", 130.5),
        ("CHROME", "Yes", "Yes", 92.7),
    ];
    for (scheme, holistic, conc, paper_kb) in rows {
        let overhead = if scheme == "CHROME" {
            // hardware budget uses the paper's 64-sampled-set config
            Chrome::new(ChromeConfig::default()).storage_overhead(llc_blocks)
        } else {
            build_any_policy(scheme)
                .expect("known scheme")
                .storage_overhead(llc_blocks)
        };
        table.row(vec![
            scheme.to_string(),
            holistic.to_string(),
            conc.to_string(),
            format!("{:.1}", overhead.total_kib()),
            format!("{paper_kb:.1}"),
        ]);
    }
    table
}
