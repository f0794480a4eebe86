//! Plain-text rendering of tables and figures.
//!
//! Everything the `repro` harness prints goes through these helpers: a
//! padded text table (the paper's Tables 1–4) and a log-x ASCII CDF plot
//! (its Figures 3 and 7–12).

use serde::{Deserialize, Serialize};

/// A simple right-padded text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len().max(row.len()), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.chars().count()..*w {
                    out.push(' ');
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        if !self.header.is_empty() {
            render_row(&self.header, &widths, &mut out);
            let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(rule));
            out.push('\n');
        }
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

/// Formats a count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a fraction as a percentage with one decimal.
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Formats a float with one decimal place.
pub fn fmt_f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimal places.
pub fn fmt_f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Renders cumulative curves as a log-x ASCII plot.
///
/// `curves` holds `(label_char, points)` where points are `(x, fraction)`
/// with fractions in `[0, 1]`. Infinite x values are clamped to the plot's
/// right edge.
pub fn ascii_cdf(title: &str, curves: &[(char, &[(f64, f64)])], x_label: &str) -> String {
    const W: usize = 64;
    const H: usize = 16;
    let mut grid = vec![vec![' '; W]; H];

    let (mut lo, mut hi) = (f64::MAX, f64::MIN);
    for (_, pts) in curves {
        for &(x, _) in pts.iter() {
            if x.is_finite() && x > 0.0 {
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
    }
    if lo >= hi {
        lo = 1.0;
        hi = 10.0;
    }
    let (llo, lhi) = (lo.ln(), hi.ln());
    let xpos = |x: f64| -> usize {
        if !x.is_finite() {
            return W - 1;
        }
        let f = ((x.max(lo).ln() - llo) / (lhi - llo)).clamp(0.0, 1.0);
        ((f * (W - 1) as f64).round() as usize).min(W - 1)
    };
    let ypos = |frac: f64| -> usize {
        let f = frac.clamp(0.0, 1.0);
        H - 1 - ((f * (H - 1) as f64).round() as usize).min(H - 1)
    };

    for (sym, pts) in curves {
        // Draw steps between consecutive CDF points.
        let mut prev: Option<(usize, usize)> = None;
        for &(x, frac) in pts.iter() {
            let (cx, cy) = (xpos(x), ypos(frac));
            if let Some((px, py)) = prev {
                #[expect(clippy::needless_range_loop)]
                for gx in px..=cx {
                    let gy = if gx == cx { cy } else { py };
                    if grid[gy][gx] == ' ' {
                        grid[gy][gx] = *sym;
                    }
                }
            } else if grid[cy][cx] == ' ' {
                grid[cy][cx] = *sym;
            }
            prev = Some((cx, cy));
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let pct = 100 - i * 100 / (H - 1);
        out.push_str(&format!("{pct:>4}% |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("      +");
    out.push_str(&"-".repeat(W));
    out.push('\n');
    out.push_str(&format!(
        "       {:<width$}{}\n",
        format_axis(lo),
        format_axis(hi),
        width = W - format_axis(hi).len() + 1
    ));
    out.push_str(&format!("       ({x_label}, log scale)\n"));
    out
}

fn format_axis(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.1}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.1}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.1}")
    }
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// What is being compared.
    pub metric: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Comparison {
    /// Builds a comparison row.
    pub fn new(metric: impl Into<String>, paper: f64, measured: f64) -> Self {
        Comparison {
            metric: metric.into(),
            paper,
            measured,
        }
    }

    /// Measured over paper (1.0 = exact).
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            if self.measured == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.measured / self.paper
        }
    }
}

/// Renders a list of comparisons as a table.
pub fn render_comparisons(title: &str, rows: &[Comparison]) -> String {
    let mut t = TextTable::new(["metric", "paper", "measured", "ratio"]);
    for c in rows {
        t.row([
            c.metric.clone(),
            format!("{:.4}", c.paper),
            format!("{:.4}", c.measured),
            format!("{:.2}x", c.ratio()),
        ]);
    }
    format!("{title}\n{}", t.render())
}

/// Renders comparisons as the sweep's and the importer's one-line
/// rows: `  paper <metric> <paper> measured <measured>`.
pub fn render_paper_rows(rows: &[Comparison]) -> String {
    rows.iter()
        .map(|c| {
            format!(
                "  paper {:<28} {:>8.3} measured {:>8.3}\n",
                c.metric, c.paper, c.measured
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_padding() {
        let mut t = TextTable::new(["a", "long-header", "c"]);
        t.row(["1", "2"]);
        t.row(["wide-cell", "3", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].starts_with("---"));
        // Columns align: "long-header" column starts at the same offset.
        let col = lines[0].find("long-header").unwrap();
        assert_eq!(lines[2].find('2'), Some(col));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(3_515_794), "3,515,794");
    }

    #[test]
    fn pct_and_floats() {
        assert_eq!(fmt_pct(0.6647), "66.5%");
        assert_eq!(fmt_f1(98.06), "98.1");
        assert_eq!(fmt_f2(27.358), "27.36");
    }

    #[test]
    fn ascii_plot_contains_curves_and_axes() {
        let disk: Vec<(f64, f64)> = vec![(1.0, 0.2), (4.0, 0.5), (30.0, 0.9), (100.0, 1.0)];
        let tape: Vec<(f64, f64)> = vec![(20.0, 0.1), (90.0, 0.5), (400.0, 1.0)];
        let s = ascii_cdf("Figure 3", &[('d', &disk), ('t', &tape)], "seconds");
        assert!(s.contains("Figure 3"));
        assert!(s.contains('d'));
        assert!(s.contains('t'));
        assert!(s.contains("100%"));
        assert!(s.contains("seconds"));
    }

    #[test]
    fn ascii_plot_handles_degenerate_input() {
        let s = ascii_cdf("empty", &[('x', &[])], "seconds");
        assert!(s.contains("empty"));
        let one = [(5.0, 1.0)];
        let s = ascii_cdf("one", &[('o', &one)], "s");
        assert!(s.contains('o'));
    }

    #[test]
    fn comparison_ratios() {
        let c = Comparison::new("read share", 0.66, 0.69);
        assert!((c.ratio() - 0.69 / 0.66).abs() < 1e-12);
        let z = Comparison::new("zero", 0.0, 0.0);
        assert_eq!(z.ratio(), 1.0);
        assert_eq!(
            render_paper_rows(std::slice::from_ref(&c)),
            "  paper read share                      0.660 measured    0.690\n"
        );
        let table = render_comparisons("check", &[c, z]);
        assert!(table.contains("read share"));
        assert!(table.contains("1.00x"));
    }
}
