//! The delivery layer: how a finished upload reaches the round's
//! aggregation tree — on completion, through the fault simulation, or in a
//! seeded shuffle.

use flux_fl::{
    AggregationTree, CompressionConfig, EncodedUpload, ExpertUpdate, FaultKind, FaultPlan,
    Participant,
};
use flux_moe::MoeModel;
use flux_tensor::{Matrix, SeededRng};

use super::active::TaskOut;
use super::{FederatedRun, RoundFaults};

/// One participant's upload in the form it crossed the (simulated) wire.
pub(super) enum RoundUpload {
    /// Legacy full-precision payload.
    Dense(Vec<ExpertUpdate>, Option<(Matrix, f32)>),
    /// Delta-encoded payload; decodes against the round-start snapshot at
    /// the aggregator staging layer.
    Encoded(EncodedUpload),
}

/// Stages one upload into the aggregator, decoding encoded payloads
/// against the round-start snapshot `base`. Every path calls it once per
/// participant and round, so the upload always stages.
///
/// # Panics
///
/// Panics when an encoded payload fails its checksum-validated decode:
/// this path only carries uploads the driver produced itself, so a decode
/// failure is a driver bug, not a simulated wire fault (those go through
/// the delivery layer, which rejects without panicking).
pub(super) fn submit_upload(
    aggregator: &AggregationTree,
    participant_id: usize,
    upload: RoundUpload,
    base: &MoeModel,
) {
    let staged = match upload {
        RoundUpload::Dense(updates, head) => aggregator.submit(participant_id, updates, head),
        RoundUpload::Encoded(encoded) => aggregator
            .submit_encoded(participant_id, &encoded, base)
            .expect("a driver-produced upload decodes against its round-start snapshot"),
    };
    debug_assert!(
        staged,
        "participant {participant_id} staged twice in one round"
    );
}

/// Puts one retained upload into the damaged wire form a corrupting
/// participant ships: encoded payloads are bit-flipped (or truncated —
/// the seed picks), dense payloads first cross the wire as a lossless
/// delta so the damage flows through the same checksum-validated decode.
fn corrupt_for_wire(upload: &RoundUpload, base: &MoeModel, seed: u64) -> EncodedUpload {
    let encoded = match upload {
        RoundUpload::Encoded(encoded) => encoded.clone(),
        RoundUpload::Dense(updates, head) => EncodedUpload::encode(
            updates,
            head.as_ref(),
            base,
            CompressionConfig::LosslessDelta,
        ),
    };
    if seed & 1 == 0 {
        encoded.corrupted(seed)
    } else {
        encoded.truncated(seed)
    }
}

/// Simulates the delivery of every retained upload under the configured
/// fault plan, behaviors and tolerance policy, staging the uploads that
/// land into `aggregator`.
///
/// Per attempt (up to `max_retries` retries): a crash loses the upload for
/// the round; a corrupt attempt reaches the server but its checksum-
/// validated decode rejects it (the attempt counts, the pid stays
/// unstaged); a stall never arrives. Clean attempts arrive at
/// `local cost + attempt × backoff` and land iff within the round
/// deadline. Landed uploads are then sorted by `(arrival, pid)` and cut at
/// the quorum count — the round finalizes once a quorum landed; later
/// arrivals are dropped. Everything is a pure function of the seeds, so
/// the same plan yields the same faults for every thread count, schedule
/// and restore point.
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
    let mut landed: Vec<(f64, usize, usize, u32, RoundUpload)> = Vec::new();
    let mut cohort = 0usize;
    for (slot, (participant, task_out)) in fleet.iter().zip(results.iter_mut()).enumerate() {
        let TaskOut::Participant(result) = task_out else {
            continue;
        };
        cohort += 1;
        let pid = participant.id;
        let behavior = driver.behaviors.get(&pid).copied().unwrap_or_default();
        let upload = result
            .upload
            .take()
            .expect("faulty rounds retain every upload for the delivery layer");
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
    for (index, (_arrival, pid, slot, attempt, upload)) in landed.into_iter().enumerate() {
        if index >= quorum {
            faults.dropped.push(pid);
            continue;
        }
        submit_upload(aggregator, pid, upload, base);
        landed_extra_s[slot] = Some(f64::from(attempt) * ft.retry_backoff_s);
    }
    faults.dropped.sort_unstable();
    faults.retried.sort_unstable();
    faults.rejected.sort_unstable();
    (landed_extra_s, faults)
}

/// Submits the uploads retained by the arrival-shuffle knob in a
/// seeded-permuted participant order.
pub(super) fn submit_shuffled(
    aggregator: &AggregationTree,
    fleet: &[Participant],
    results: Vec<TaskOut>,
    round: usize,
    seed: u64,
    base: &MoeModel,
) {
    let mut uploads: Vec<(usize, RoundUpload)> = fleet
        .iter()
        .zip(results)
        .filter_map(|(participant, task_out)| match task_out {
            TaskOut::Participant(mut result) => {
                result.upload.take().map(|upload| (participant.id, upload))
            }
            _ => None,
        })
        .collect();
    // Shuffle with the knob's own RNG family, keyed by round so every
    // round sees a different arrival order.
    let mut shuffle_rng = SeededRng::new(seed).derive(round as u64 + 1);
    shuffle_rng.shuffle(&mut uploads);
    for (pid, upload) in uploads {
        submit_upload(aggregator, pid, upload, base);
    }
}
