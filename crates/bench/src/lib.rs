//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (Figures 1–7 and 11–15, plus the Section 6.4/6.6 text
//! numbers), and the serving-tier experiments built on the Table 7
//! offload-latency argument: the analytic simulator sweeps
//! ([`serve_figures`]) and their measured execution-engine counterpart
//! ([`served_figures`], which closes the loop between the two tiers).
//!
//! Each `fig*` function returns the figure's data as a printable table so
//! the `figures` binary and the integration tests share one
//! implementation. A [`Workbench`] carries the expensive
//! shared state (chunk bank, generated suites, per-file profiles) so a
//! full `figures all` run builds everything once.
//!
//! Scaling: the paper's artifact runs 35,000 benchmark files on 16 FPGAs
//! for up to 110 hours; the default scale here (hundreds of files, calls
//! capped at 512 KiB) runs the complete evaluation in minutes on a laptop
//! while preserving every trend. Pass a larger [`Scale`] to push toward
//! paper scale.

pub mod ablations;
pub mod chunked_figures;
pub mod cli;
pub mod dse_figures;
pub mod entropy_figures;
pub mod obs_figures;
pub mod profile_figures;
pub mod regress;
pub mod serve_figures;
pub mod served_figures;
pub mod workbench;

pub use workbench::{Scale, Workbench};

/// Renders a simple aligned table: header + rows of equal arity.
///
/// # Panics
///
/// Panics if any row's arity differs from the header's.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "T",
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333".into(), "4".into()],
            ],
        );
        assert!(t.contains("long-header"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        let _ = render_table("T", &["a"], &[vec!["1".into(), "2".into()]]);
    }
}
