//! # sj-bench — reproduction harness
//!
//! One binary per table/figure of the paper (see `src/bin/`). Every
//! figure binary prints a header with the Table 3 parameters it uses
//! followed by CSV series that regenerate the figure's data. Wall-clock
//! probes of the hot kernels live in the end-to-end harness
//! (`benchmark/src/layers/`), not here.

use sj_costmodel::series::Series;
use sj_costmodel::ModelParams;

/// Prints the standard parameter header used by all figure binaries.
pub fn print_params(params: &ModelParams) {
    println!(
        "# parameters: n={} k={} N={} v={} l={} h={} s={} z={} M={} C_theta={} C_IO={} C_U={} m={} d={}",
        params.n,
        params.k,
        params.n_tuples(),
        params.v,
        params.l,
        params.h,
        params.s,
        params.z,
        params.m_mem,
        params.c_theta,
        params.c_io,
        params.c_u,
        params.m(),
        params.d
    );
}

/// Prints figure series as CSV: a `p` column followed by one column per
/// series, matching the paper's log-log plots.
pub fn print_series_csv(series: &[Series]) {
    print!("p");
    for s in series {
        print!(",{}", s.label);
    }
    println!();
    if series.is_empty() {
        return;
    }
    for i in 0..series[0].points.len() {
        print!("{:e}", series[0].points[i].0);
        for s in series {
            print!(",{:e}", s.points[i].1);
        }
        println!();
    }
}

/// Renders a compact ASCII log-log chart of the series (y = cost,
/// x = selectivity), good enough to eyeball the crossovers in a terminal.
pub fn ascii_chart(series: &[Series], width: usize, height: usize) -> String {
    let marks = ['I', 'a', 'b', '3', '*', '+'];
    let mut pts: Vec<(f64, f64, char)> = Vec::new();
    for (si, s) in series.iter().enumerate() {
        for &(p, c) in &s.points {
            if p > 0.0 && c > 0.0 {
                pts.push((p.log10(), c.log10(), marks[si % marks.len()]));
            }
        }
    }
    if pts.is_empty() {
        return String::from("(no data)\n");
    }
    let (x0, x1) = pts.iter().fold((f64::MAX, f64::MIN), |(a, b), &(x, _, _)| {
        (a.min(x), b.max(x))
    });
    let (y0, y1) = pts.iter().fold((f64::MAX, f64::MIN), |(a, b), &(_, y, _)| {
        (a.min(y), b.max(y))
    });
    let mut canvas = vec![vec![' '; width]; height];
    for &(x, y, m) in &pts {
        let cx = (((x - x0) / (x1 - x0).max(1e-12)) * (width - 1) as f64).round() as usize;
        let cy = (((y - y0) / (y1 - y0).max(1e-12)) * (height - 1) as f64).round() as usize;
        canvas[height - 1 - cy][cx] = m;
    }
    let mut out = String::new();
    for row in canvas {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{}={}", marks[i % marks.len()], s.label))
        .collect();
    out.push_str(&format!(
        "x: log10(p) in [{:.1}, {:.1}]   y: log10(cost) in [{:.1}, {:.1}]   {}\n",
        x0,
        x1,
        y0,
        y1,
        legend.join("  ")
    ));
    out
}

/// Shared driver for the SELECT figures (Figures 8–10): prints the
/// parameter header, the CSV series, an ASCII rendition, and the §4.5
/// observations for the given distribution.
pub fn run_select_figure(figure: u32, dist: sj_costmodel::Distribution) {
    use sj_costmodel::series::{log_grid, select_figure};
    let params = ModelParams::paper();
    println!("# Figure {figure}: SELECT, {} distribution", dist.name());
    print_params(&params);
    let grid = log_grid(1e-6, 1.0, 25);
    let series = select_figure(&params, dist, &grid);
    print_series_csv(&series);
    println!();
    let search_only: Vec<Series> = series
        .iter()
        .filter(|s| !s.label.starts_with("U_"))
        .cloned()
        .collect();
    println!("{}", ascii_chart(&search_only, 72, 24));
}

/// Shared driver for the JOIN figures (Figures 11–13), including the
/// III-vs-IIb crossover the paper reports.
pub fn run_join_figure(figure: u32, dist: sj_costmodel::Distribution) {
    use sj_costmodel::join;
    use sj_costmodel::series::{crossover, join_figure, log_grid};
    let params = ModelParams::paper();
    println!("# Figure {figure}: JOIN, {} distribution", dist.name());
    print_params(&params);
    let grid = log_grid(1e-12, 1.0, 25);
    let series = join_figure(&params, dist, &grid);
    print_series_csv(&series);
    println!();
    println!("{}", ascii_chart(&series, 72, 24));
    match crossover(
        1e-12,
        1e-2,
        |p| join::d_iii(&params, dist, p),
        |p| join::d_iib(&params, dist, p),
    ) {
        Some(c) => println!("# crossover D_III vs D_IIb at p ≈ {c:.3e}"),
        None => println!("# no D_III / D_IIb crossover in [1e-12, 1e-2]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_costmodel::series::{join_figure, log_grid};
    use sj_costmodel::Distribution;

    #[test]
    fn ascii_chart_renders_all_series() {
        let params = ModelParams::paper();
        let grid = log_grid(1e-10, 1.0, 20);
        let series = join_figure(&params, Distribution::Uniform, &grid);
        let chart = ascii_chart(&series, 60, 20);
        for mark in ['I', 'a', 'b', '3'] {
            assert!(chart.contains(mark), "mark {mark} missing:\n{chart}");
        }
    }
}
