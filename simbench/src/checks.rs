//! Correctness checks. Each returns the problems it found (empty = pass).
//!
//! They are computed apart from the code under test: rows are read with
//! the benchmark's own JSON reader and compared with an offline sweep made
//! in the same process, or checked against properties the method must
//! have (energy is power times time; the optimized OpenCL version is never
//! slower than the naive one).

use crate::json::{self, Value};
use crate::report::FAMILIES;
use crate::schedule::{all_cells, Coord, PRECISIONS, VERSIONS};

/// The paper's two missing bars (§V-A): amcd in double precision on the
/// GPU fails to build. These cells are expected skips, not failures.
pub fn expected_skip(c: Coord) -> bool {
    FAMILIES[c.0] == "amcd" && VERSIONS[c.1].starts_with("OpenCL") && PRECISIONS[c.2] == "double"
}

/// Ratio columns are computed over a request's own result set, so they
/// legitimately differ between a subset and the full grid.
const RATIO_FIELDS: [&str; 3] = ["speedup", "power_ratio", "energy_ratio"];

/// Largest relative gap allowed between `energy_j` and
/// `power_w * time_s` (the rows hold within 1.3e-5).
pub const ENERGY_TOL: f64 = 5e-5;

pub fn label(c: Coord) -> String {
    format!("{}/{}/{}", FAMILIES[c.0], VERSIONS[c.1], PRECISIONS[c.2])
}

fn coord_of(row: &Value) -> Option<Coord> {
    let s = |k| row.get(k).and_then(Value::as_str);
    let b = FAMILIES.iter().position(|f| Some(*f) == s("bench"))?;
    let v = VERSIONS.iter().position(|f| Some(*f) == s("version"))?;
    let p = PRECISIONS.iter().position(|f| Some(*f) == s("precision"))?;
    Some((b, v, p))
}

/// Parse JSON Lines into rows.
pub fn rows(text: &str) -> Result<Vec<Value>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| json::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The offline test-scale sweep every serving response is checked against.
pub struct Offline {
    /// `to_jsonl` of the sweep: a full-grid response must equal it byte for
    /// byte.
    pub jsonl: String,
    /// Its rows, indexed like [`all_cells`].
    pub rows: Vec<Value>,
}

impl Offline {
    pub fn new(jsonl: String) -> Result<Offline, String> {
        let rows = rows(&jsonl)?;
        let want = all_cells();
        if rows.len() != want.len() {
            return Err(format!(
                "offline sweep has {} rows, want {}",
                rows.len(),
                want.len()
            ));
        }
        for (row, c) in rows.iter().zip(&want) {
            if coord_of(row) != Some(*c) {
                return Err(format!("offline sweep out of grid order at {}", label(*c)));
            }
        }
        Ok(Offline { jsonl, rows })
    }

    pub fn row(&self, c: Coord) -> &Value {
        let i = all_cells().iter().position(|x| *x == c).expect("grid cell");
        &self.rows[i]
    }
}

/// Compare every per-cell field of two rows (all but the ratio columns).
pub fn same_cell_fields(got: &Value, want: &Value) -> Result<(), String> {
    let (Some(g), Some(w)) = (got.as_obj(), want.as_obj()) else {
        return Err("row is not an object".into());
    };
    let gk: Vec<&String> = g.keys().collect();
    let wk: Vec<&String> = w.keys().collect();
    if gk != wk {
        return Err(format!("fields {gk:?} differ from offline {wk:?}"));
    }
    for (k, v) in w {
        if RATIO_FIELDS.contains(&k.as_str()) {
            continue;
        }
        if g.get(k) != Some(v) {
            return Err(format!("field '{k}' is {:?}, offline {:?}", g.get(k), v));
        }
    }
    Ok(())
}

/// A full-grid sweep response must be byte-identical to the offline JSONL.
pub fn full_grid(body: &[u8], off: &Offline) -> Vec<String> {
    if body == off.jsonl.as_bytes() {
        return Vec::new();
    }
    let at = body
        .iter()
        .zip(off.jsonl.as_bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(body.len().min(off.jsonl.len()));
    vec![format!(
        "full-grid response differs from offline to_jsonl at byte {at} ({} vs {} bytes)",
        body.len(),
        off.jsonl.len()
    )]
}

/// A subset sweep returns one row per requested cell, in request order,
/// each equal to the offline row in all per-cell fields.
pub fn subset(body: &[u8], cells: &[Coord], off: &Offline) -> Vec<String> {
    let text = String::from_utf8_lossy(body);
    let got = match rows(&text) {
        Ok(r) => r,
        Err(e) => return vec![format!("subset response: {e}")],
    };
    if got.len() != cells.len() {
        return vec![format!(
            "subset response has {} rows for {} cells",
            got.len(),
            cells.len()
        )];
    }
    let mut out = Vec::new();
    for (row, &c) in got.iter().zip(cells) {
        if coord_of(row) != Some(c) {
            out.push(format!("subset row for {} names another cell", label(c)));
        } else if let Err(e) = same_cell_fields(row, off.row(c)) {
            out.push(format!("subset row {}: {e}", label(c)));
        }
    }
    out
}

/// `GET /v1/cell/<key>` answers `{"key", "spec", "row"}` for that key; the
/// row equals the offline row in all per-cell fields.
pub fn single_cell(body: &[u8], key: &str, c: Coord, off: &Offline) -> Vec<String> {
    let doc = match json::parse(&String::from_utf8_lossy(body)) {
        Ok(d) => d,
        Err(e) => return vec![format!("cell {}: {e}", label(c))],
    };
    let mut out = Vec::new();
    if doc.get("key").and_then(Value::as_str) != Some(key) {
        out.push(format!("cell {}: answered for another key", label(c)));
    }
    match doc.get("row") {
        Some(row) if coord_of(row) == Some(c) => {
            if let Err(e) = same_cell_fields(row, off.row(c)) {
                out.push(format!("cell {}: {e}", label(c)));
            }
        }
        _ => out.push(format!("cell {}: missing or foreign row", label(c))),
    }
    out
}

/// A sweep under an optimizer pipeline: one row per requested cell, in
/// request order, each `status=ok` (the two expected skips aside) with the
/// unoptimized offline digest, since passes preserve semantics.
pub fn optimized(body: &[u8], cells: &[Coord], off: &Offline) -> Vec<String> {
    let text = String::from_utf8_lossy(body);
    let got = match rows(&text) {
        Ok(r) => r,
        Err(e) => return vec![format!("optimized sweep: {e}")],
    };
    if got.len() != cells.len() {
        return vec![format!(
            "optimized sweep has {} rows, want {}",
            got.len(),
            cells.len()
        )];
    }
    let mut out = Vec::new();
    for (row, &c) in got.iter().zip(cells) {
        let status = row.get("status").and_then(Value::as_str);
        let want_status = if expected_skip(c) { "skip" } else { "ok" };
        if coord_of(row) != Some(c) {
            out.push(format!("optimized row for {} names another cell", label(c)));
        } else if status != Some(want_status) {
            out.push(format!(
                "optimized row {}: status {status:?}, want {want_status}",
                label(c)
            ));
        } else if want_status == "ok" {
            let digest = |r: &Value| r.get("output_digest").cloned();
            if digest(row).is_none() || digest(row) != digest(off.row(c)) {
                out.push(format!(
                    "optimized row {}: output_digest {:?} differs from unoptimized {:?}",
                    label(c),
                    digest(row),
                    digest(off.row(c))
                ));
            }
        }
    }
    out
}

/// The paper-scale grid's exported rows:
/// * the skipped cells are exactly the two expected amcd skips, every other
///   row is `status=ok`;
/// * every row satisfies `energy_j = power_w × time_s`;
/// * OpenCL-Opt is never slower than OpenCL (the paper's central claim),
///   for every family and precision where both ran.
pub fn paper_grid(jsonl: &str) -> Vec<String> {
    let got = match rows(jsonl) {
        Ok(r) => r,
        Err(e) => return vec![format!("paper-grid JSONL: {e}")],
    };
    let cells = all_cells();
    if got.len() != cells.len() {
        return vec![format!(
            "paper-grid JSONL has {} rows, want {}",
            got.len(),
            cells.len()
        )];
    }
    let mut out = Vec::new();
    let mut time = std::collections::BTreeMap::new();
    for (row, &c) in got.iter().zip(&cells) {
        if coord_of(row) != Some(c) {
            out.push(format!(
                "paper-grid row for {} names another cell",
                label(c)
            ));
            continue;
        }
        let status = row.get("status").and_then(Value::as_str);
        let want_status = if expected_skip(c) { "skip" } else { "ok" };
        if status != Some(want_status) {
            out.push(format!(
                "{}: status {status:?}, want {want_status}",
                label(c)
            ));
            continue;
        }
        if want_status == "skip" {
            continue;
        }
        let f = |k: &str| row.get(k).and_then(Value::as_f64);
        match (f("energy_j"), f("power_w"), f("time_s")) {
            (Some(e), Some(p), Some(t)) if e > 0.0 && p > 0.0 && t > 0.0 => {
                let rel = (e - p * t).abs() / e;
                if rel > ENERGY_TOL {
                    out.push(format!(
                        "{}: energy_j {e} != power_w {p} x time_s {t} (rel {rel:.2e})",
                        label(c)
                    ));
                }
                time.insert(c, t);
            }
            _ => out.push(format!(
                "{}: missing or non-positive energy/power/time",
                label(c)
            )),
        }
    }
    for (b, family) in FAMILIES.iter().enumerate() {
        for (p, precision) in PRECISIONS.iter().enumerate() {
            if let (Some(naive), Some(opt)) = (time.get(&(b, 2, p)), time.get(&(b, 3, p))) {
                if opt > naive {
                    out.push(format!(
                        "{family} {precision}: OpenCL-Opt ({opt} s) is slower than OpenCL ({naive} s)"
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic grid in `to_jsonl`'s shape: every OpenCL-Opt cell beats
    /// OpenCL, energies are exact products.
    fn grid() -> String {
        let mut s = String::new();
        for (i, c) in all_cells().into_iter().enumerate() {
            let head = format!(
                "\"bench\":\"{}\",\"version\":\"{}\",\"precision\":\"{}\"",
                FAMILIES[c.0], VERSIONS[c.1], PRECISIONS[c.2]
            );
            if expected_skip(c) {
                s.push_str(&format!(
                    "{{{head},\"status\":\"skip\",\"skip_reason\":\"compiler bug\"}}\n"
                ));
                continue;
            }
            let t = 0.5 / (1 + c.1) as f64;
            let p = 4.0 + c.1 as f64 * 0.25;
            s.push_str(&format!(
                "{{{head},\"status\":\"ok\",\"time_s\":{t},\"power_w\":{p},\"energy_j\":{},\"speedup\":{},\"output_digest\":\"{:016x}\"}}\n",
                p * t,
                1 + c.1,
                i * 7919
            ));
        }
        s
    }

    fn offline() -> Offline {
        Offline::new(grid()).unwrap()
    }

    /// Flip the byte right after the `occurrence`-th match of `needle`.
    fn flip_in(s: &str, needle: &str, occurrence: usize) -> Vec<u8> {
        let at = s.match_indices(needle).nth(occurrence).expect("needle").0 + needle.len();
        let mut b = s.as_bytes().to_vec();
        b[at] = if b[at] == b'7' { b'8' } else { b'7' };
        b
    }

    #[test]
    fn paper_grid_passes_and_fails_on_one_flipped_value() {
        let g = grid();
        assert!(paper_grid(&g).is_empty(), "{:?}", paper_grid(&g));
        // One energy value off: energy = power x time breaks.
        let bad = flip_in(&g, "\"energy_j\":0.", 3);
        assert!(!paper_grid(&String::from_utf8(bad).unwrap()).is_empty());
        // OpenCL-Opt made slower than OpenCL (energy kept consistent).
        let slow = g.replacen(
            "\"version\":\"OpenCL-Opt\",\"precision\":\"single\",\"status\":\"ok\",\"time_s\":0.125,\"power_w\":4.75,\"energy_j\":0.59375",
            "\"version\":\"OpenCL-Opt\",\"precision\":\"single\",\"status\":\"ok\",\"time_s\":0.25,\"power_w\":4.75,\"energy_j\":1.1875",
            1,
        );
        assert_ne!(slow, g);
        assert!(paper_grid(&slow).iter().any(|p| p.contains("slower")));
        // A skip where a result belongs, or a result where the skip belongs.
        let skipped = g.replacen("\"status\":\"ok\"", "\"status\":\"skip\"", 1);
        assert!(!paper_grid(&skipped).is_empty());
    }

    #[test]
    fn full_grid_fails_on_one_flipped_byte() {
        let off = offline();
        assert!(full_grid(off.jsonl.as_bytes(), &off).is_empty());
        for at in [0, off.jsonl.len() / 2, off.jsonl.len() - 1] {
            let mut b = off.jsonl.as_bytes().to_vec();
            b[at] ^= 1;
            assert!(!full_grid(&b, &off).is_empty(), "flip at {at}");
        }
    }

    #[test]
    fn subset_ignores_ratios_but_fails_on_a_flipped_cell_value() {
        let off = offline();
        let cells = vec![(8, 3, 0), (0, 0, 1)];
        let mut body = String::new();
        for &c in &cells {
            // Ratios differ in a subset: null them, keep per-cell fields.
            let mut obj = off.row(c).as_obj().unwrap().clone();
            obj.insert("speedup".into(), Value::Null);
            let fields: Vec<String> = obj
                .iter()
                .map(|(k, v)| format!("{}:{}", crate::json::quote(k), render(v)))
                .collect();
            body.push_str(&format!("{{{}}}\n", fields.join(",")));
        }
        assert!(
            subset(body.as_bytes(), &cells, &off).is_empty(),
            "{:?}",
            subset(body.as_bytes(), &cells, &off)
        );
        let bad = flip_in(&body, "\"time_s\":0.", 0);
        assert!(!subset(&bad, &cells, &off).is_empty());
        let bad = flip_in(&body, "\"output_digest\":\"", 1);
        assert!(!subset(&bad, &cells, &off).is_empty());
        assert!(
            !subset(body.as_bytes(), &cells[..1], &off).is_empty(),
            "row count"
        );
    }

    fn render(v: &Value) -> String {
        match v {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => n.clone(),
            Value::Str(s) => crate::json::quote(s),
            _ => unreachable!("rows are flat"),
        }
    }

    #[test]
    fn single_cell_fails_on_a_flipped_byte() {
        let off = offline();
        let c = (2, 1, 0);
        let row = off
            .jsonl
            .lines()
            .nth(all_cells().iter().position(|x| *x == c).unwrap())
            .unwrap();
        let body = format!("{{\"key\":\"00112233aabbccdd\",\"spec\":\"s\",\"row\":{row}}}\n");
        assert!(single_cell(body.as_bytes(), "00112233aabbccdd", c, &off).is_empty());
        let bad = flip_in(&body, "\"power_w\":4.", 0);
        assert!(!single_cell(&bad, "00112233aabbccdd", c, &off).is_empty());
        assert!(!single_cell(body.as_bytes(), "00112233aabbccde", c, &off).is_empty());
    }

    #[test]
    fn optimized_fails_on_a_flipped_digest_or_status() {
        let off = offline();
        let cells = crate::schedule::autotune_cells();
        let body: String = cells
            .iter()
            .map(|&c| {
                let i = all_cells().iter().position(|x| *x == c).unwrap();
                format!("{}\n", off.jsonl.lines().nth(i).unwrap())
            })
            .collect();
        assert!(optimized(body.as_bytes(), &cells, &off).is_empty());
        assert!(optimized(off.jsonl.as_bytes(), &all_cells(), &off).is_empty());
        let bad = flip_in(&body, "\"output_digest\":\"", 5);
        assert!(!optimized(&bad, &cells, &off).is_empty());
        let failed = body.replacen("\"status\":\"ok\"", "\"status\":\"fail\"", 1);
        assert!(!optimized(failed.as_bytes(), &cells, &off).is_empty());
        assert!(
            !optimized(body.as_bytes(), &cells[1..], &off).is_empty(),
            "row count"
        );
    }
}
