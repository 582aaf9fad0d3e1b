//! Seeded request schedules. The same seed always yields the same requests;
//! the program under test sees only the generated requests, never the seed.

use crate::report::FAMILIES;

/// SplitMix64: small, seedable, and independent of the crates under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Wire names of the four versions and two precisions.
pub const VERSIONS: [&str; 4] = ["Serial", "OpenMP", "OpenCL", "OpenCL-Opt"];
pub const PRECISIONS: [&str; 2] = ["single", "double"];

/// One cell of the 72-cell grid: (family, version, precision) indices.
pub type Coord = (usize, usize, usize);

/// Every cell of the grid, in the order a full-grid sweep returns them.
pub fn all_cells() -> Vec<Coord> {
    let mut out = Vec::with_capacity(72);
    for b in 0..FAMILIES.len() {
        for p in 0..PRECISIONS.len() {
            for v in 0..VERSIONS.len() {
                out.push((b, v, p));
            }
        }
    }
    out
}

/// One request of the `serve-hot` mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Req {
    /// `POST /v1/sweep` over the whole test-scale grid.
    Full,
    /// `POST /v1/sweep` naming 1–16 distinct cells.
    Subset(Vec<Coord>),
    /// `GET /v1/cell/<key>`.
    Cell(Coord),
}

/// Requests of each kind per connection per round.
pub const FULL_PER_ROUND: usize = 16;
pub const SUBSET_PER_ROUND: usize = 5;
pub const CELL_PER_ROUND: usize = 3;

/// The `serve-hot` requests one connection sends in one round, in order:
/// a fixed count of each kind (so every round carries the same mix), with
/// seeded subset contents, cell choices and order.
pub fn serve_round(seed: u64, round: u64, conn: u64) -> Vec<Req> {
    let mut rng = Rng::new(
        seed ^ round.wrapping_mul(0xA24B_AED4_963E_E407) ^ conn.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    );
    let cells = all_cells();
    let mut out = vec![Req::Full; FULL_PER_ROUND];
    for _ in 0..SUBSET_PER_ROUND {
        let n = 1 + rng.below(16);
        let mut pick = cells.clone();
        rng.shuffle(&mut pick);
        pick.truncate(n);
        out.push(Req::Subset(pick));
    }
    for _ in 0..CELL_PER_ROUND {
        out.push(Req::Cell(cells[rng.below(cells.len())]));
    }
    rng.shuffle(&mut out);
    out
}

/// The `cells` array of a sweep body.
fn cells_json(cells: &[Coord]) -> String {
    let items: Vec<String> = cells
        .iter()
        .map(|&(b, v, p)| {
            format!(
                "{{\"bench\":\"{}\",\"version\":\"{}\",\"precision\":\"{}\"}}",
                FAMILIES[b], VERSIONS[v], PRECISIONS[p]
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// JSON body of a subset sweep.
pub fn subset_body(cells: &[Coord]) -> String {
    format!("{{\"scale\":\"test\",\"cells\":{}}}", cells_json(cells))
}

pub const FULL_BODY: &str = "{\"scale\":\"test\",\"cells\":\"all\"}";

/// The cells `harness autotune --addr` asks for under each candidate
/// pipeline: every family at OpenCL-Opt, single precision, in suite order.
pub fn autotune_cells() -> Vec<Coord> {
    (0..FAMILIES.len()).map(|b| (b, 3, 0)).collect()
}

/// Distinct seeded orderings of all seven optimizer passes, one per
/// `autotune-fleet` request, like the shuffled candidates of `harness
/// autotune`: every request names cells no earlier request of the run
/// named, so every cell misses the shard caches.
pub struct Orderings {
    rng: Rng,
    seen: std::collections::HashSet<Vec<&'static str>>,
    passes: Vec<&'static str>,
}

impl Orderings {
    /// All orderings there are (7!).
    pub const COUNT: u64 = 5040;

    pub fn new(seed: u64) -> Orderings {
        Orderings {
            rng: Rng::new(seed ^ 0x005E_ED0F_0DE5),
            seen: Default::default(),
            passes: kernel_ir::Pass::ALL.iter().map(|p| p.name()).collect(),
        }
    }

    /// The next ordering never produced before by this generator
    /// (comma-separated pass names). Panics once all are used.
    pub fn next_ordering(&mut self) -> String {
        assert!(
            (self.seen.len() as u64) < Self::COUNT,
            "every ordering used"
        );
        loop {
            let mut p = self.passes.clone();
            self.rng.shuffle(&mut p);
            if self.seen.insert(p.clone()) {
                return p.join(",");
            }
        }
    }
}

/// The body `harness autotune --addr` sends for one candidate: the
/// [`autotune_cells`] at test scale under `ordering`.
/// The body `harness autotune --addr` sends for one candidate: the
/// [`autotune_cells`] at test scale under `ordering`.
pub fn passes_body(ordering: &str) -> String {
    format!(
        "{{\"scale\":\"test\",\"passes\":\"{ordering}\",\"cells\":{}}}",
        cells_json(&autotune_cells())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_schedule_replays_for_a_seed_and_differs_for_another() {
        let a: Vec<Vec<Req>> = (0..4).map(|r| serve_round(7, r, 0)).collect();
        let b: Vec<Vec<Req>> = (0..4).map(|r| serve_round(7, r, 0)).collect();
        let c: Vec<Vec<Req>> = (0..4).map(|r| serve_round(8, r, 0)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(
            serve_round(7, 0, 0),
            serve_round(7, 0, 1),
            "connections differ"
        );
    }

    #[test]
    fn every_round_has_the_same_mix() {
        for seed in 0..20 {
            let r = serve_round(seed, seed * 3, 1);
            assert_eq!(
                r.iter().filter(|q| **q == Req::Full).count(),
                FULL_PER_ROUND
            );
            let subsets: Vec<&Vec<Coord>> = r
                .iter()
                .filter_map(|q| match q {
                    Req::Subset(c) => Some(c),
                    _ => None,
                })
                .collect();
            assert_eq!(subsets.len(), SUBSET_PER_ROUND);
            for s in subsets {
                assert!((1..=16).contains(&s.len()));
                let mut d = s.clone();
                d.sort();
                d.dedup();
                assert_eq!(d.len(), s.len(), "subset cells are distinct");
            }
            assert_eq!(r.len(), FULL_PER_ROUND + SUBSET_PER_ROUND + CELL_PER_ROUND);
        }
    }

    #[test]
    fn orderings_replay_are_distinct_and_parse() {
        let take = |seed| {
            let mut o = Orderings::new(seed);
            (0..200).map(|_| o.next_ordering()).collect::<Vec<_>>()
        };
        let a = take(3);
        assert_eq!(a, take(3));
        assert_ne!(a, take(4));
        let mut d = a.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), a.len());
        for o in &a {
            assert_eq!(kernel_ir::Pipeline::parse(o).unwrap().to_string(), *o);
        }
    }
}
