//! The delivery layer: the one place an upload reaches the round's
//! aggregation tree, after the fault simulation decides whether it arrives.

use std::sync::Arc;

use flux_fl::compress::DecodedUpload;
use flux_fl::{
    AggregationTree, CompressionConfig, EncodedUpload, FaultKind, FaultPlan, Participant,
};
use flux_moe::{Expert, MoeModel};
use flux_tensor::SeededRng;

use super::active::TaskOut;
use super::{FederatedRun, RoundFaults};

/// One participant's upload in the form staging takes: its shared expert
/// updates (holding no copy of an expert it did not write) and the
/// optional `(head, weight)`.
pub(super) type Upload = DecodedUpload<Arc<Expert>>;

/// The damaged wire form a corrupting participant ships: its upload as a
/// lossless delta against `base`, bit-flipped or truncated (the seed
/// picks), so the damage flows through the checksum-validated decode.
fn corrupt_for_wire((updates, head): &Upload, base: &MoeModel, seed: u64) -> EncodedUpload {
    let encoded = EncodedUpload::encode(
        updates,
        head.as_ref(),
        base,
        CompressionConfig::LosslessDelta,
    );
    if seed & 1 == 0 {
        encoded.corrupted(seed)
    } else {
        encoded.truncated(seed)
    }
}

/// Simulates the delivery of every participant's upload under the
/// configured fault plan, behaviors and tolerance policy, staging the
/// uploads that land into `aggregator`: the only path an upload takes to
/// the global model.
///
/// Per attempt (up to `max_retries` retries): a crash loses the upload for
/// the round; a corrupt attempt reaches the server but its checksum-
/// validated decode rejects it (the attempt counts, the pid stays
/// unstaged); a stall never arrives. Clean attempts arrive at
/// `local cost + attempt × backoff` and land iff within the round
/// deadline. Landed uploads are then sorted by `(arrival, pid)` and cut at
/// the quorum count — the round finalizes once a quorum landed; later
/// arrivals are dropped. Under the inert default policy and no fault
/// source every upload lands at attempt 0 and the ledger stays empty.
/// The landed uploads stage in arrival order, or in a seeded permutation
/// of it under [`FederatedRun::with_shuffled_arrivals`]; the aggregator's
/// participant-id-ordered finalize makes that order unobservable.
/// Everything is a pure function of the seeds, so the same plan yields
/// the same faults for every thread count, schedule and restore point.
///
/// Returns the fault ledger and, per fleet slot, the extra communication
/// seconds the retries cost when the upload landed (`None` when it did
/// not, or the slot was a dropout).
pub(super) fn simulate_deliveries(
    driver: &FederatedRun,
    round: usize,
    aggregator: &AggregationTree,
    fleet: &[Participant],
    results: &mut [TaskOut],
    base: &MoeModel,
) -> (Vec<Option<f64>>, RoundFaults) {
    let ft = driver.config.fault_tolerance;
    let plan = driver.config.fault_plan;
    let mut landed_extra_s: Vec<Option<f64>> = vec![None; fleet.len()];
    let mut faults = RoundFaults::default();
    // (arrival_s, pid, slot index, successful attempt, upload)
    let mut landed: Vec<(f64, usize, usize, u32, Upload)> = Vec::new();
    let mut cohort = 0usize;
    for (slot, (participant, task_out)) in fleet.iter().zip(results.iter_mut()).enumerate() {
        let TaskOut::Participant(result) = task_out else {
            continue;
        };
        cohort += 1;
        let pid = participant.id;
        let behavior = driver.behaviors.get(&pid).copied().unwrap_or_default();
        let upload = result.upload.take().expect("a local round ships an upload");
        let base_arrival = result.output.cost.total_s();
        let mut was_rejected = false;
        let mut delivery: Option<(f64, u32)> = None;
        for attempt in 0..=ft.max_retries {
            // Scripted one-shot behaviors take precedence over the random
            // plan, so a test can pin a specific incident under a plan.
            let fault = match behavior.fault_at(round, attempt) {
                FaultKind::None => plan
                    .map(|p| p.fault_for(round, pid, attempt))
                    .unwrap_or(FaultKind::None),
                scripted => scripted,
            };
            match fault {
                FaultKind::Crash => break,
                FaultKind::Corrupt => {
                    // A scripted corruption without a plan draws its damage
                    // from a plan seeded with the run's own seed.
                    let seed = plan
                        .unwrap_or_else(|| FaultPlan::new(driver.seed))
                        .corruption_seed(round, pid, attempt);
                    let damaged = corrupt_for_wire(&upload, base, seed);
                    // The damaged payload reaches the server; the checksum-
                    // validated decode must reject it without staging
                    // anything and without panicking.
                    let verdict = aggregator.submit_encoded(pid, &damaged, base);
                    debug_assert!(verdict.is_err(), "a damaged upload must never stage");
                    was_rejected = true;
                }
                FaultKind::Stall => {}
                FaultKind::None => {
                    let arrival = base_arrival + f64::from(attempt) * ft.retry_backoff_s;
                    if arrival <= ft.round_deadline_s {
                        delivery = Some((arrival, attempt));
                    }
                    break;
                }
            }
        }
        if was_rejected {
            faults.rejected.push(pid);
        }
        match delivery {
            Some((arrival, attempt)) => {
                if attempt > 0 {
                    faults.retried.push(pid);
                }
                landed.push((arrival, pid, slot, attempt, upload));
            }
            None => faults.dropped.push(pid),
        }
    }
    // The round finalizes once a quorum of the cohort landed; later
    // arrivals are dropped from the round. Ties break by pid so the cut is
    // deterministic.
    landed.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let quorum = ft.quorum_count(cohort);
    for (_arrival, pid, ..) in landed.drain(quorum.min(landed.len())..) {
        faults.dropped.push(pid);
    }
    if let Some(seed) = driver.arrival_seed {
        // A deterministic stand-in for an arbitrary arrival order, keyed by
        // round so every round sees a different one.
        SeededRng::new(seed)
            .derive(round as u64 + 1)
            .shuffle(&mut landed);
    }
    for (_arrival, pid, slot, attempt, (updates, head)) in landed {
        let staged = aggregator.submit(pid, updates, head);
        debug_assert!(staged, "participant {pid} staged twice in one round");
        landed_extra_s[slot] = Some(f64::from(attempt) * ft.retry_backoff_s);
    }
    faults.dropped.sort_unstable();
    faults.retried.sort_unstable();
    faults.rejected.sort_unstable();
    (landed_extra_s, faults)
}
