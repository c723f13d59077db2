//! ASCII scatter plots for the paper's fairness-vs-throughput figures.
//!
//! Figures 1, 4 and 6 of the paper are scatter plots of maximum slowdown
//! against weighted speedup; [`Scatter`] renders the same picture in
//! plain text so the experiment binaries can show the *geometry* (who is
//! closest to the ideal lower-right corner), not just the numbers.

/// A labelled 2-D point set rendered as an ASCII grid.
///
/// # Example
///
/// ```
/// use tcm_sim::scatter::Scatter;
///
/// let mut plot = Scatter::new("WS", "maxSD", 40, 12);
/// plot.point('A', 8.0, 14.0);
/// plot.point('T', 8.4, 9.8);
/// let rendered = plot.render();
/// assert!(rendered.contains('A'));
/// assert!(rendered.contains('T'));
/// ```
#[derive(Debug, Clone)]
pub struct Scatter {
    x_label: String,
    y_label: String,
    width: usize,
    height: usize,
    points: Vec<(char, f64, f64)>,
}

impl Scatter {
    /// Creates an empty plot of `width × height` character cells.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is smaller than 2.
    pub fn new(x_label: &str, y_label: &str, width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "plot must be at least 2x2");
        Self {
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            width,
            height,
            points: Vec::new(),
        }
    }

    /// Adds a point drawn as `marker`.
    pub fn point(&mut self, marker: char, x: f64, y: f64) {
        self.points.push((marker, x, y));
    }

    /// Number of points added.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plot has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders the plot. The y axis is drawn *inverted* (smaller values
    /// at the bottom) so that — as in the paper's figures — the ideal
    /// operating point (high throughput, low unfairness) is the lower
    /// right corner.
    pub fn render(&self) -> String {
        if self.points.is_empty() {
            return format!("(no points)  x={}, y={}\n", self.x_label, self.y_label);
        }
        let (mut min_x, mut max_x) = (f64::MAX, f64::MIN);
        let (mut min_y, mut max_y) = (f64::MAX, f64::MIN);
        for &(_, x, y) in &self.points {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        // Pad degenerate ranges so single points render mid-plot.
        if (max_x - min_x).abs() < 1e-12 {
            min_x -= 1.0;
            max_x += 1.0;
        }
        if (max_y - min_y).abs() < 1e-12 {
            min_y -= 1.0;
            max_y += 1.0;
        }
        let mut grid = vec![vec![' '; self.width]; self.height];
        for &(marker, x, y) in &self.points {
            let cx = ((x - min_x) / (max_x - min_x) * (self.width - 1) as f64).round() as usize;
            let cy = ((y - min_y) / (max_y - min_y) * (self.height - 1) as f64).round() as usize;
            // Row 0 is the top: the largest y.
            grid[self.height - 1 - cy][cx] = marker;
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{} {:.2} (top) .. {:.2} (bottom)\n",
            self.y_label, max_y, min_y
        ));
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        out.push_str(&format!(
            " {} {:.2} .. {:.2}  (ideal = lower right)\n",
            self.x_label, min_x, max_x
        ));
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_markers_in_bounds() {
        let mut p = Scatter::new("WS", "maxSD", 30, 10);
        p.point('F', 6.6, 14.5);
        p.point('S', 7.2, 10.9);
        p.point('P', 7.5, 9.0);
        p.point('A', 8.0, 17.5);
        p.point('T', 8.4, 9.8);
        let s = p.render();
        for marker in ['F', 'S', 'P', 'A', 'T'] {
            assert!(s.contains(marker), "missing {marker}");
        }
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
    }

    #[test]
    fn ideal_corner_is_lower_right() {
        let mut p = Scatter::new("WS", "maxSD", 20, 8);
        p.point('B', 1.0, 10.0); // bad: slow + unfair -> upper left
        p.point('G', 9.0, 1.0); // good: fast + fair -> lower right
        let s = p.render();
        let lines: Vec<&str> = s.lines().collect();
        // 'B' appears above 'G'.
        let b_row = lines.iter().position(|l| l.contains('B')).unwrap();
        let g_row = lines.iter().position(|l| l.contains('G')).unwrap();
        assert!(b_row < g_row);
        // 'G' is to the right of 'B'.
        assert!(lines[g_row].find('G').unwrap() > lines[b_row].find('B').unwrap());
    }

    #[test]
    fn degenerate_inputs_render_safely() {
        let mut p = Scatter::new("x", "y", 10, 5);
        p.point('X', 3.0, 3.0);
        let s = p.render();
        assert!(s.contains('X'));
        let empty = Scatter::new("x", "y", 10, 5);
        assert!(empty.render().contains("no points"));
    }

    #[test]
    #[should_panic(expected = "2x2")]
    fn tiny_plots_rejected() {
        Scatter::new("x", "y", 1, 5);
    }
}
