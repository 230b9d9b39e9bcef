//! A small, dependency-free SVG chart renderer used by the `figures`
//! binary to draw the paper's plots (bar charts for Figs. 7/8/15–18,
//! line/step charts for Figs. 6/19/20, grouped sweeps for Fig. 5).
//!
//! This is intentionally minimal — axes, ticks, bars, polylines, legends —
//! not a plotting library. Everything is pure string generation so the
//! harness stays within the sanctioned dependency set.

use std::fmt::Write as _;

/// Chart canvas geometry.
const WIDTH: f64 = 860.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 30.0;
const MARGIN_T: f64 = 48.0;
const MARGIN_B: f64 = 96.0;

/// Series colors (colorblind-friendly-ish).
const PALETTE: [&str; 6] = [
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c",
];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// A grouped bar chart: one group per category, one bar per series.
///
/// # Examples
///
/// ```
/// use dynapar_bench::svg::BarChart;
///
/// let mut c = BarChart::new("demo", "speedup");
/// c.series("A", vec![1.0, 2.0]);
/// c.series("B", vec![1.5, 0.5]);
/// c.categories(vec!["x".into(), "y".into()]);
/// let svg = c.render();
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("demo"));
/// ```
#[derive(Debug, Default)]
pub struct BarChart {
    title: String,
    y_label: String,
    categories: Vec<String>,
    series: Vec<(String, Vec<f64>)>,
    hline: Option<f64>,
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new(title: impl Into<String>, y_label: impl Into<String>) -> Self {
        BarChart {
            title: title.into(),
            y_label: y_label.into(),
            ..Default::default()
        }
    }

    /// Sets the category (x-axis group) labels.
    pub fn categories(&mut self, cats: Vec<String>) -> &mut Self {
        self.categories = cats;
        self
    }

    /// Adds one series (a bar per category).
    pub fn series(&mut self, name: impl Into<String>, values: Vec<f64>) -> &mut Self {
        self.series.push((name.into(), values));
        self
    }

    /// Draws a horizontal reference line (e.g. speedup = 1.0).
    pub fn reference_line(&mut self, y: f64) -> &mut Self {
        self.hline = Some(y);
        self
    }

    /// Renders the chart to an SVG string.
    ///
    /// # Panics
    ///
    /// Panics if a series' length does not match the category count.
    pub fn render(&self) -> String {
        for (name, vals) in &self.series {
            assert_eq!(
                vals.len(),
                self.categories.len(),
                "series {name} length mismatch"
            );
        }
        let y_max = self
            .series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .fold(self.hline.unwrap_or(0.0), f64::max)
            .max(1e-9)
            * 1.12;
        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
        let ncat = self.categories.len().max(1) as f64;
        let nser = self.series.len().max(1) as f64;
        let group_w = plot_w / ncat;
        let bar_w = (group_w * 0.8) / nser;

        let mut s = svg_header(&self.title);
        draw_axes(&mut s, y_max, &self.y_label);
        if let Some(h) = self.hline {
            let y = MARGIN_T + plot_h * (1.0 - h / y_max);
            let _ = writeln!(
                s,
                r##"<line x1="{MARGIN_L}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#999" stroke-dasharray="5,4"/>"##,
                WIDTH - MARGIN_R
            );
        }
        for (si, (name, vals)) in self.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            for (ci, &v) in vals.iter().enumerate() {
                let h = plot_h * (v / y_max).clamp(0.0, 1.0);
                let x = MARGIN_L + ci as f64 * group_w + group_w * 0.1 + si as f64 * bar_w;
                let y = MARGIN_T + plot_h - h;
                let _ = writeln!(
                    s,
                    r##"<rect x="{x:.1}" y="{y:.1}" width="{:.1}" height="{h:.1}" fill="{color}"><title>{}: {v:.3}</title></rect>"##,
                    bar_w.max(1.0),
                    esc(name),
                );
            }
            legend_entry(&mut s, si, name);
        }
        for (ci, cat) in self.categories.iter().enumerate() {
            let x = MARGIN_L + (ci as f64 + 0.5) * group_w;
            let y = MARGIN_T + plot_h + 14.0;
            let _ = writeln!(
                s,
                r##"<text x="{x:.1}" y="{y:.1}" font-size="11" text-anchor="end" transform="rotate(-38 {x:.1} {y:.1})">{}</text>"##,
                esc(cat)
            );
        }
        s.push_str("</svg>\n");
        s
    }
}

/// A multi-series line chart over a shared numeric x-axis.
///
/// # Examples
///
/// ```
/// use dynapar_bench::svg::LineChart;
///
/// let mut c = LineChart::new("timeline", "cycles", "CTAs");
/// c.series("parent", vec![(0.0, 0.0), (10.0, 5.0)]);
/// let svg = c.render();
/// assert!(svg.contains("polyline"));
/// ```
#[derive(Debug, Default)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<(String, Vec<(f64, f64)>)>,
    y2_label: String,
    secondary: Vec<(String, Vec<(f64, f64)>)>,
}

impl LineChart {
    /// Creates an empty line chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        LineChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            y2_label: String::new(),
            secondary: Vec::new(),
        }
    }

    /// Adds one `(x, y)` series.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.push((name.into(), points));
        self
    }

    /// Labels the secondary (right) y-axis; shown once any
    /// [`secondary_series`](LineChart::secondary_series) is added.
    pub fn secondary_label(&mut self, label: impl Into<String>) -> &mut Self {
        self.y2_label = label.into();
        self
    }

    /// Adds one `(x, y)` series scaled against the secondary (right)
    /// y-axis; drawn dashed so the two scales are distinguishable.
    /// Lets one figure overlay quantities of different magnitudes —
    /// e.g. `n_con` (CTAs) against pending-queue depth (kernels).
    pub fn secondary_series(
        &mut self,
        name: impl Into<String>,
        points: Vec<(f64, f64)>,
    ) -> &mut Self {
        self.secondary.push((name.into(), points));
        self
    }

    /// Renders the chart to an SVG string.
    pub fn render(&self) -> String {
        let xs = self
            .series
            .iter()
            .chain(self.secondary.iter())
            .flat_map(|(_, p)| p.iter().map(|&(x, _)| x));
        let x_max = xs.fold(1e-9f64, f64::max);
        let y_max = self
            .series
            .iter()
            .flat_map(|(_, p)| p.iter().map(|&(_, y)| y))
            .fold(1e-9f64, f64::max)
            * 1.08;
        let y2_max = self
            .secondary
            .iter()
            .flat_map(|(_, p)| p.iter().map(|&(_, y)| y))
            .fold(1e-9f64, f64::max)
            * 1.08;
        // Widen the right margin only when a second scale needs ticks.
        let margin_r = if self.secondary.is_empty() {
            MARGIN_R
        } else {
            64.0
        };
        let plot_w = WIDTH - MARGIN_L - margin_r;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;

        let mut s = svg_header(&self.title);
        draw_axes(&mut s, y_max, &self.y_label);
        let _ = writeln!(
            s,
            r##"<text x="{:.1}" y="{:.1}" font-size="12" text-anchor="middle">{}</text>"##,
            MARGIN_L + plot_w / 2.0,
            HEIGHT - 8.0,
            esc(&self.x_label)
        );
        // X ticks.
        for i in 0..=4 {
            let frac = i as f64 / 4.0;
            let x = MARGIN_L + plot_w * frac;
            let _ = writeln!(
                s,
                r##"<text x="{x:.1}" y="{:.1}" font-size="11" text-anchor="middle">{:.0}</text>"##,
                MARGIN_T + plot_h + 16.0,
                x_max * frac
            );
        }
        for (si, (name, pts)) in self.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            let path: Vec<String> = pts
                .iter()
                .map(|&(x, y)| {
                    format!(
                        "{:.1},{:.1}",
                        MARGIN_L + plot_w * (x / x_max).clamp(0.0, 1.0),
                        MARGIN_T + plot_h * (1.0 - (y / y_max).clamp(0.0, 1.0))
                    )
                })
                .collect();
            let _ = writeln!(
                s,
                r##"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"##,
                path.join(" ")
            );
            legend_entry(&mut s, si, name);
        }
        if !self.secondary.is_empty() {
            // Right-axis ticks and label for the second scale.
            for i in 0..=4 {
                let frac = i as f64 / 4.0;
                let y = MARGIN_T + plot_h * (1.0 - frac);
                let _ = writeln!(
                    s,
                    r##"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="start">{:.2}</text>"##,
                    MARGIN_L + plot_w + 6.0,
                    y + 4.0,
                    y2_max * frac
                );
            }
            let x = WIDTH - 10.0;
            let _ = writeln!(
                s,
                r##"<text x="{x:.1}" y="{:.1}" font-size="12" text-anchor="middle" transform="rotate(90 {x:.1} {:.1})">{}</text>"##,
                MARGIN_T + plot_h / 2.0,
                MARGIN_T + plot_h / 2.0,
                esc(&self.y2_label)
            );
            for (si, (name, pts)) in self.secondary.iter().enumerate() {
                let idx = self.series.len() + si;
                let color = PALETTE[idx % PALETTE.len()];
                let path: Vec<String> = pts
                    .iter()
                    .map(|&(x, y)| {
                        format!(
                            "{:.1},{:.1}",
                            MARGIN_L + plot_w * (x / x_max).clamp(0.0, 1.0),
                            MARGIN_T + plot_h * (1.0 - (y / y2_max).clamp(0.0, 1.0))
                        )
                    })
                    .collect();
                let _ = writeln!(
                    s,
                    r##"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.8" stroke-dasharray="6,3"/>"##,
                    path.join(" ")
                );
                legend_entry(&mut s, idx, name);
            }
        }
        s.push_str("</svg>\n");
        s
    }
}

fn svg_header(title: &str) -> String {
    let mut s = String::with_capacity(16 * 1024);
    let _ = writeln!(
        s,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"##
    );
    let _ = writeln!(
        s,
        r##"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>
<text x="{:.1}" y="26" font-size="16" text-anchor="middle" font-weight="bold">{}</text>"##,
        WIDTH / 2.0,
        esc(title)
    );
    s
}

fn draw_axes(s: &mut String, y_max: f64, y_label: &str) {
    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
    let _ = writeln!(
        s,
        r##"<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{:.1}" stroke="#333"/>
<line x1="{MARGIN_L}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#333"/>"##,
        MARGIN_T + plot_h,
        MARGIN_T + plot_h,
        MARGIN_L + plot_w,
        MARGIN_T + plot_h
    );
    for i in 0..=4 {
        let frac = i as f64 / 4.0;
        let y = MARGIN_T + plot_h * (1.0 - frac);
        let _ = writeln!(
            s,
            r##"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end">{:.2}</text>
<line x1="{MARGIN_L}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#eee"/>"##,
            MARGIN_L - 6.0,
            y + 4.0,
            y_max * frac,
            MARGIN_L + plot_w
        );
    }
    let _ = writeln!(
        s,
        r##"<text x="16" y="{:.1}" font-size="12" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"##,
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
        esc(y_label)
    );
}

fn legend_entry(s: &mut String, index: usize, name: &str) {
    let color = PALETTE[index % PALETTE.len()];
    let x = MARGIN_L + 8.0 + index as f64 * 150.0;
    let y = MARGIN_T - 14.0;
    let _ = writeln!(
        s,
        r##"<rect x="{x:.1}" y="{:.1}" width="12" height="12" fill="{color}"/>
<text x="{:.1}" y="{:.1}" font-size="12">{}</text>"##,
        y - 10.0,
        x + 16.0,
        y,
        esc(name)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chart_renders_all_bars() {
        let mut c = BarChart::new("t", "y");
        c.categories(vec!["a".into(), "b".into(), "c".into()]);
        c.series("s1", vec![1.0, 2.0, 3.0]);
        c.series("s2", vec![3.0, 2.0, 1.0]);
        c.reference_line(1.0);
        let svg = c.render();
        assert_eq!(svg.matches("<rect").count(), 1 + 6 + 2); // bg + bars + legend keys
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bar_chart_rejects_ragged_series() {
        let mut c = BarChart::new("t", "y");
        c.categories(vec!["a".into()]);
        c.series("bad", vec![1.0, 2.0]);
        c.render();
    }

    #[test]
    fn line_chart_renders_polylines() {
        let mut c = LineChart::new("t", "x", "y");
        c.series("one", vec![(0.0, 0.0), (5.0, 2.0), (10.0, 1.0)]);
        c.series("two", vec![(0.0, 1.0), (10.0, 3.0)]);
        let svg = c.render();
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("one"));
        assert!(svg.contains("two"));
    }

    #[test]
    fn secondary_axis_renders_dashed_on_its_own_scale() {
        let mut c = LineChart::new("t", "cycles", "n_con");
        c.series("n_con", vec![(0.0, 0.0), (10.0, 4.0)]);
        c.secondary_label("queue depth");
        c.secondary_series("queue", vec![(0.0, 0.0), (10.0, 4000.0)]);
        let svg = c.render();
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("stroke-dasharray=\"6,3\""));
        assert!(svg.contains("queue depth"));
        // The right axis tops out near the secondary max, not the primary's.
        assert!(svg.contains("4320.00"), "right-axis tick missing: {svg}");
    }

    #[test]
    fn escaping_protects_markup() {
        let mut c = BarChart::new("<script>", "y");
        c.categories(vec!["a&b".into()]);
        c.series("s<1>", vec![1.0]);
        let svg = c.render();
        assert!(!svg.contains("<script>"));
        assert!(svg.contains("&lt;script&gt;"));
        assert!(svg.contains("a&amp;b"));
    }

    #[test]
    fn empty_charts_still_render() {
        let c = BarChart::new("empty", "y");
        let svg = c.render();
        assert!(svg.starts_with("<svg"));
        let c = LineChart::new("empty", "x", "y");
        assert!(c.render().contains("</svg>"));
    }
}
