//! The correctness gate. A run whose served answers differ from a fresh
//! engine's exits non-zero and reports no metrics.
//!
//! * Sampled search bodies are decoded and compared with a fresh
//!   `ShardedEngine::search` over the database state they could have
//!   seen. Without concurrent writes that is the fixture; under
//!   write-mix it is any state between the last write the replica had
//!   made visible before the request was sent and the last write sent
//!   before its response arrived.
//! * After the writes, a probe set must give the same answers on the
//!   primary, on the replica, and on an engine freshly crawled from the
//!   final database.

use std::collections::BTreeMap;

use dash_core::crawl::reference;
use dash_core::{IngestSource, SearchRequest, ShardedEngine};
use dash_net::json::hits_from_json;
use dash_net::NetClient;

use crate::deploy::Deployment;
use crate::inputs::{application, Inputs, Result};
use crate::openloop::{Sample, WriteDone};
use crate::spec::SHARDS;

/// Probe requests compared across primary, replica and a fresh engine.
const PROBES: usize = 64;

/// Fresh engines over database states, built on demand. State `w` is
/// the fixture with the first `w` writes applied.
pub struct Oracle<'a> {
    inputs: &'a Inputs,
    engines: BTreeMap<usize, ShardedEngine>,
}

impl<'a> Oracle<'a> {
    pub fn new(inputs: &'a Inputs) -> Oracle<'a> {
        Oracle {
            inputs,
            engines: BTreeMap::new(),
        }
    }

    fn engine(&mut self, applied: usize) -> Result<&ShardedEngine> {
        if !self.engines.contains_key(&applied) {
            let db = self.inputs.db_after(applied);
            let app = application(&db)?;
            let fresh;
            let fragments = if applied == 0 {
                &self.inputs.fragments
            } else {
                fresh = reference::fragments(&app, &db).map_err(|e| format!("crawl: {e}"))?;
                &fresh
            };
            let engine = ShardedEngine::builder(app)
                .shards(SHARDS)
                .source(IngestSource::Fragments(fragments))
                .build()
                .map_err(|e| format!("build: {e}"))?;
            self.engines.insert(applied, engine);
        }
        Ok(&self.engines[&applied])
    }

    /// Checks sampled bodies against the states they could have seen.
    /// `base` writes were in before the sampled phase; `writes` are the
    /// ones made during it, in order.
    pub fn check_samples(
        &mut self,
        samples: &[Sample],
        base: usize,
        writes: &[WriteDone],
    ) -> Result<usize> {
        for sample in samples {
            let served = hits_from_json(&sample.body)
                .map_err(|e| format!("undecodable body for {:?}: {e}", sample.request.keywords))?;
            // Writes are sequential: visible and sent times both ascend.
            let lo = writes
                .iter()
                .take_while(|w| w.visible <= sample.sent)
                .count();
            let hi = writes.iter().take_while(|w| w.sent < sample.done).count();
            let mut matched = false;
            for state in (lo..=hi).map(|n| base + n) {
                // After whole delete/re-insert pairs the database holds
                // the fixture's rows again (in another order).
                let state = if state % 2 == 0 { 0 } else { state };
                if self.engine(state)?.search(&sample.request) == served {
                    matched = true;
                    break;
                }
            }
            if !matched {
                return Err(format!(
                    "served answer for {:?} (k={}, s={}) differs from a fresh engine",
                    sample.request.keywords, sample.request.k, sample.request.min_size
                ));
            }
        }
        Ok(samples.len())
    }

    /// Compares a probe set on the primary, the replica and a fresh
    /// engine over the final database (`applied` writes in).
    pub fn check_final(&mut self, deployment: &Deployment, applied: usize) -> Result<usize> {
        let probes: Vec<SearchRequest> = self.inputs.requests(0xF1A1, PROBES);
        let mut primary =
            NetClient::connect(deployment.net.addr()).map_err(|e| format!("probe: {e}"))?;
        let mut replica =
            NetClient::connect(deployment.replica_net.addr()).map_err(|e| format!("probe: {e}"))?;
        let engine = self.engine(applied)?;
        for request in &probes {
            let expected = engine.search(request);
            let on_primary = primary.search(request).map_err(|e| format!("probe: {e}"))?;
            let on_replica = replica.search(request).map_err(|e| format!("probe: {e}"))?;
            if on_primary != expected || on_replica != expected {
                return Err(format!(
                    "after {applied} writes, {:?} differs: primary {}, replica {}",
                    request.keywords,
                    if on_primary == expected {
                        "ok"
                    } else {
                        "WRONG"
                    },
                    if on_replica == expected {
                        "ok"
                    } else {
                        "WRONG"
                    },
                ));
            }
        }
        Ok(probes.len())
    }
}
