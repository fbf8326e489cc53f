//! Seeded inputs. Everything a run feeds the program is made here,
//! before any clock starts: the TPC-H database, the keyword pools the
//! searches draw from, and the write stream.
//!
//! The fixture is fixed: the database (the TPC-H generator's own seed),
//! the 24-word keyword pool and the `lineitem` rows the writes delete
//! and re-insert (both drawn with [`FIXTURE_SEED`]). What a request or
//! a write costs then does not depend on `--seed`, so the spread
//! between runs is the system's and not the draw's. The seed drives
//! everything sent against the fixture: the arrival times of searches
//! and writes, and which pool word and page size each search asks for.

use dash_core::crawl::reference;
use dash_core::{DashEngine, Fragment, RecordChange, SearchRequest};
use dash_mapreduce::WorkflowStats;
use dash_net::NetChange;
use dash_relation::Database;
use dash_tpch::{generate, Scale, TpchConfig};
use dash_webapp::WebApplication;
use rand::distr::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::spec::{Workload, CUSTOMERS};

/// Words per temperature class in the keyword pool.
const POOL_PER_CLASS: usize = 8;
/// Page-size thresholds a pool request picks from.
const POOL_SIZES: [u64; 3] = [100, 500, 1000];
/// Zipf exponent of the keyword draws.
const SKEW: f64 = 1.1;
/// Seed of the fixture's keyword pool and written rows.
const FIXTURE_SEED: u64 = 0x1d5a_7c3e;
/// Delete/re-insert pairs made available to the write driver.
const WRITE_PAIRS: usize = 256;

pub type Result<T> = std::result::Result<T, String>;

/// One run's inputs.
pub struct Inputs {
    pub workload: Workload,
    seed: u64,
    /// The database the primary is built from (state before any write).
    pub db: Database,
    /// The fragments a reference crawl derives from `db`: the oracle's
    /// starting point, and the source of the keyword ranking.
    pub fragments: Vec<Fragment>,
    /// The 24-word pool requests draw from, hottest first.
    pub vocab: Vec<String>,
    zipf: Zipf,
    /// The write stream: `lineitem` row `i` is deleted by write `2i` and
    /// re-inserted by write `2i + 1`, so the database size stays
    /// constant and at most one row is missing at any time.
    pub writes: Vec<NetChange>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Result<Inputs> {
        let mut config = TpchConfig::new(Scale::Custom(1));
        config.base_customers = CUSTOMERS;
        config.base_parts = CUSTOMERS * 13 / 10;
        let db = generate(&config);
        let app = application(&db)?;
        let fragments = reference::fragments(&app, &db).map_err(|e| format!("crawl: {e}"))?;
        let engine = DashEngine::from_fragments(app, &fragments, WorkflowStats::new())
            .map_err(|e| format!("build: {e}"))?;
        let ranked: Vec<String> = engine
            .index()
            .inverted
            .keywords_by_df()
            .into_iter()
            .map(|(word, _)| word.to_string())
            .collect();
        if ranked.len() < 10 * POOL_PER_CLASS {
            return Err(format!("vocabulary of {} words is too small", ranked.len()));
        }
        let mut rng = StdRng::seed_from_u64(FIXTURE_SEED);
        // Hot, warm and cold deciles, as in the paper's Sec. VII-B.
        let n = ranked.len();
        let decile = n / 10;
        let mut vocab = Vec::new();
        for start in [0, n / 2 - decile / 2, n - decile] {
            let mut picked: Vec<String> = Vec::new();
            while picked.len() < POOL_PER_CLASS {
                let word = &ranked[start + rng.random_range(0..decile)];
                if !picked.contains(word) {
                    picked.push(word.clone());
                }
            }
            vocab.extend(picked);
        }
        let zipf = Zipf::new(vocab.len(), SKEW);
        let writes = write_stream(&db, &mut rng)?;
        Ok(Inputs {
            workload,
            seed,
            db,
            fragments,
            vocab,
            zipf,
            writes,
        })
    }

    /// Draws one search request: one keyword Zipf-skewed over the pool
    /// and one of three page-size thresholds, so there are a few dozen
    /// distinct requests and after warm-up nearly all are cache hits.
    pub fn draw(&self, rng: &mut StdRng) -> SearchRequest {
        let word = &self.vocab[self.zipf.sample(rng)];
        SearchRequest::new(&[word.as_str()])
            .k(10)
            .min_size(POOL_SIZES[rng.random_range(0..POOL_SIZES.len())])
    }

    /// `count` requests drawn from a stream derived from `stream`.
    pub fn requests(&self, stream: u64, count: usize) -> Vec<SearchRequest> {
        let mut rng = self.rng(stream);
        (0..count).map(|_| self.draw(&mut rng)).collect()
    }

    /// An RNG for one independent stream of this run.
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
    }

    /// The database after the first `applied` writes, changed the way
    /// the primary changes its own copy.
    pub fn db_after(&self, applied: usize) -> Database {
        let mut db = self.db.clone();
        for change in &self.writes[..applied] {
            apply(&mut db, change);
        }
        db
    }
}

/// The Q2 application over `db`.
pub fn application(db: &Database) -> Result<WebApplication> {
    dash_tpch::q2_application(db).map_err(|e| format!("Q2 analysis: {e}"))
}

/// Applies one write to a database copy: deletes remove the exact row,
/// inserts append it.
pub fn apply(db: &mut Database, change: &NetChange) {
    match change {
        NetChange::Delete(c) => {
            db.table_mut(&c.relation)
                .expect("write stream names an existing relation")
                .delete_where(|r| *r == c.record);
        }
        NetChange::Insert(c) => db
            .table_mut(&c.relation)
            .expect("write stream names an existing relation")
            .insert(c.record.clone())
            .expect("re-inserting a deleted row succeeds"),
    }
}

/// The record change a write carries.
pub fn change_of(change: &NetChange) -> &RecordChange {
    match change {
        NetChange::Delete(c) | NetChange::Insert(c) => c,
    }
}

fn write_stream(db: &Database, rng: &mut StdRng) -> Result<Vec<NetChange>> {
    let rows = db
        .table("lineitem")
        .map_err(|e| format!("lineitem: {e}"))?
        .records();
    let mut picked: Vec<usize> = Vec::with_capacity(WRITE_PAIRS);
    while picked.len() < WRITE_PAIRS.min(rows.len()) {
        let at = rng.random_range(0..rows.len());
        // Distinct rows whose exact copy is unique, so a delete removes
        // exactly one row.
        if !picked.contains(&at) && rows.iter().filter(|r| **r == rows[at]).count() == 1 {
            picked.push(at);
        }
    }
    Ok(picked
        .into_iter()
        .flat_map(|at| {
            let change = RecordChange::new("lineitem", rows[at].clone());
            [NetChange::Delete(change.clone()), NetChange::Insert(change)]
        })
        .collect())
}
