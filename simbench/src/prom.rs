//! Reading the service's `/metrics` text exposition.

/// The value of the unlabelled sample `name`, or 0 when absent.
pub fn value(page: &str, name: &str) -> f64 {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == name).then(|| v.trim().parse::<f64>().ok()).flatten()
        })
        .unwrap_or(0.0)
}

/// A counter or histogram snapshot difference between two pages.
pub fn delta(before: &str, after: &str, name: &str) -> f64 {
    value(after, name) - value(before, name)
}

/// Mean of a histogram's samples recorded between two pages, in the
/// histogram's unit (`<name>_sum` / `<name>_count`); 0 when none.
pub fn hist_mean(before: &str, after: &str, name: &str) -> f64 {
    let n = delta(before, after, &format!("{name}_count"));
    if n <= 0.0 {
        return 0.0;
    }
    delta(before, after, &format!("{name}_sum")) / n
}

/// Sum of [`delta`] over several servers' page pairs.
pub fn delta_sum(pages: &[(String, String)], name: &str) -> f64 {
    pages.iter().map(|(b, a)| delta(b, a, name)).sum()
}

/// [`hist_mean`] over the merged samples of several servers.
pub fn hist_mean_sum(pages: &[(String, String)], name: &str) -> f64 {
    let n = delta_sum(pages, &format!("{name}_count"));
    if n <= 0.0 {
        return 0.0;
    }
    delta_sum(pages, &format!("{name}_sum")) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_counters_and_histogram_means() {
        let a = "# TYPE x counter\nsim_x 3\nsim_h_us_sum 100\nsim_h_us_count 2\n";
        let b = "sim_x 10\nsim_h_us_bucket{le=\"8\"} 1\nsim_h_us_sum 400\nsim_h_us_count 5\n";
        assert_eq!(delta(a, b, "sim_x"), 7.0);
        assert_eq!(hist_mean(a, b, "sim_h_us"), 100.0);
        assert_eq!(value(b, "missing"), 0.0);
    }
}
