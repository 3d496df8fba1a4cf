//! Plain-text table/series rendering in the style of the paper's figures.

/// Renders a titled, column-aligned table.
pub fn table<S: AsRef<str>>(title: &str, header: &[S], rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.iter().map(|h| h.as_ref().to_string()).collect();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<w$}", c, w = widths[i] + 2));
            } else {
                s.push_str(&format!("{:>w$}", c, w = widths[i] + 2));
            }
        }
        s
    };
    let mut out = format!(
        "\n=== {title} ===\n{}\n{}\n",
        line(&header),
        "-".repeat(widths.iter().map(|w| w + 2).sum())
    );
    for row in rows {
        out += &line(row);
        out.push('\n');
    }
    out
}

/// Formats a float with three significant decimals.
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a count in millions (the unit of the paper's write/read
/// tables).
pub fn fmt_millions(v: u64) -> String {
    format!("{:.2}", v as f64 / 1e6)
}

/// Renders a Fig. 2-style heatmap as ASCII shades (darker = costlier),
/// rows printed top-to-bottom as y descends, matching the paper's plots.
pub fn render_heatmap(surface: &[Vec<f64>]) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for row in surface {
        for &v in row {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let span = (hi - lo).max(1e-12);
    let mut out = String::new();
    for row in surface.iter().rev() {
        for &v in row {
            let idx = (((v - lo) / span) * (SHADES.len() - 1) as f64).round() as usize;
            let c = SHADES[idx.min(SHADES.len() - 1)] as char;
            out.push(c);
            out.push(c);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shades_span_the_range() {
        let surface = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let s = render_heatmap(&surface);
        assert!(s.contains(' ') && s.contains('@'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn millions_format() {
        assert_eq!(fmt_millions(11_420_000), "11.42");
    }
}
