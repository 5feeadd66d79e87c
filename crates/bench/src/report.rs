//! Plain-text table rendering for the harness binaries.

/// Renders a table with a header row and aligned columns.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats an `f64` with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats an `f64` with 3 decimal places.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_all_cells() {
        let t = render_table(
            "T",
            &["model", "speedup"],
            &[
                vec!["VGG13".into(), "1.47".into()],
                vec!["ResNet50".into(), "1.45".into()],
            ],
        );
        assert!(t.contains("VGG13") && t.contains("1.45") && t.contains("== T =="));
    }

    #[test]
    fn columns_align() {
        let t = render_table("x", &["a"], &[vec!["longvalue".into()]]);
        assert!(t.contains("longvalue"));
    }
}
