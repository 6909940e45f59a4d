//! Failure-injection tests: corrupted gradients, poisoned checkpoints, and
//! adversarial inputs must be detected and contained — the robustness the
//! validation pass (§4.4) exists to provide.

use grace_optim::adam::{AdamConfig, AdamState, AdamStepper, GraceAdam};
use grace_optim::rollback::RollbackGuard;
use llm_model::transformer::{GptConfig, GptModel};
use llm_model::SyntheticPile;
use superoffload::checkpoint::Checkpoint;
use superoffload::engine::{Discipline, Engine, EngineConfig, StepOutcome};
use tensorlite::XorShiftRng;

fn tiny() -> GptModel {
    GptModel::new(
        GptConfig {
            vocab: 53,
            hidden: 16,
            layers: 2,
            heads: 2,
            max_seq: 16,
        },
        404,
    )
}

/// A NaN planted anywhere in the parameters poisons the loss; the engines
/// must skip (never commit a poisoned update) and agree with each other.
#[test]
fn injected_parameter_nan_forces_identical_skips() {
    let cfg = EngineConfig::default();
    let mut rng = XorShiftRng::new(9);
    for _ in 0..5 {
        let mut model = tiny();
        // Plant the NaN in the final LayerNorm gain: it is on every token's
        // path, so the poison is guaranteed to reach the loss.
        let view = model.view("lnf.gamma").expect("lnf.gamma exists");
        let idx = view.offset + rng.next_usize(view.len);
        model.params_mut()[idx] = f32::NAN;
        let mut stv = Engine::new(Discipline::Stv, model.clone(), 1, cfg);
        let mut sync = Engine::new(Discipline::Sync, model, 1, cfg);
        let mut pile = SyntheticPile::new(53, 1);
        let batch = pile.next_batch(2, 12);
        let a = stv.train_step(&batch).unwrap();
        let b = sync.train_step(&batch).unwrap();
        assert!(
            matches!(a, StepOutcome::Skipped { .. }),
            "poisoned model must skip, got {a:?}"
        );
        assert!(matches!(b, StepOutcome::Skipped { .. }));
        // Bitwise comparison: the planted NaN makes `==` on floats useless.
        let bits = |m: &GptModel| -> Vec<u32> { m.params().iter().map(|p| p.to_bits()).collect() };
        assert_eq!(bits(stv.model()), bits(sync.model()));
    }
}

/// Randomly corrupted checkpoint bytes must never load as a valid state
/// (or, if the corruption misses every check, must at least preserve
/// structural invariants).
#[test]
fn corrupted_checkpoints_never_load_invalid_structure() {
    let engine = Engine::new(Discipline::Stv, tiny(), 1, EngineConfig::default());
    let bytes = engine.checkpoint().to_bytes();
    let mut rng = XorShiftRng::new(77);
    for _ in 0..50 {
        let mut corrupted = bytes.clone();
        let idx = rng.next_usize(corrupted.len());
        corrupted[idx] ^= 0x40 + (rng.next_usize(64) as u8);
        match Checkpoint::from_bytes(&corrupted) {
            Err(_) => {} // detected — good
            Ok(ckpt) => {
                // A flipped float payload can slip through; the structure
                // must still be coherent.
                assert_eq!(ckpt.params.len(), ckpt.m.len());
                assert_eq!(ckpt.params.len(), ckpt.v.len());
            }
        }
    }
}

/// Truncated checkpoints at every prefix length are rejected, not
/// misinterpreted.
#[test]
fn truncated_checkpoints_always_rejected() {
    let engine = Engine::new(Discipline::Sync, tiny(), 1, EngineConfig::default());
    let bytes = engine.checkpoint().to_bytes();
    for cut in (0..bytes.len()).step_by(97) {
        assert!(
            Checkpoint::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes parsed as a checkpoint"
        );
    }
}

/// Rollback containment: if a speculative step is poisoned mid-flight
/// (gradient corruption after capture), restoring the guard recovers the
/// exact pre-step state regardless of what the step wrote.
#[test]
fn rollback_contains_arbitrary_corruption() {
    let cfg = AdamConfig::default();
    let mut rng = XorShiftRng::new(13);
    let n = 500;
    let mut params: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
    let mut state = AdamState::new(n);
    let before_p = params.clone();

    for trial in 0..10 {
        let guard = RollbackGuard::capture_all(&params, &state);
        // Corrupted gradients: random NaN/Inf/huge entries.
        let grads: Vec<f32> = (0..n)
            .map(|_| match rng.next_usize(4) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => 1e30,
                _ => rng.normal(),
            })
            .collect();
        GraceAdam::default().step(&cfg, trial + 1, &mut params, &grads, &mut state);
        guard.restore(&mut params, &mut state);
        assert_eq!(params, before_p, "trial {trial}: rollback incomplete");
        assert!(state.m.iter().all(|&x| x == 0.0));
        assert!(state.v.iter().all(|&x| x == 0.0));
    }
}

/// Extreme inputs: the longest sequence, repeated tokens, and the maximum
/// token id never break the forward/backward path.
#[test]
fn adversarial_inputs_stay_finite() {
    let mut model = tiny();
    let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![52; 16], vec![52; 16]), // max token id, max length
        (vec![0; 16], vec![0; 16]),   // all zeros
        (
            (0..16).map(|i| i % 53).collect(),
            (1..17).map(|i| i % 53).collect(),
        ),
        (vec![5], vec![9]), // single token
    ];
    for (x, y) in cases {
        model.zero_grads();
        let loss = model.forward_backward(&x, &y).unwrap();
        assert!(loss.is_finite(), "loss blew up on {x:?}");
        assert!(model.grads().iter().all(|g| g.is_finite()));
    }
}

/// Sustained overflow pressure: an adversarial schedule of giant losses
/// (huge scale) never corrupts parameters — every poisoned step is skipped
/// and the scaler backs off monotonically until recovery.
#[test]
fn sustained_overflow_never_corrupts_parameters() {
    let cfg = EngineConfig {
        initial_loss_scale: 3.4e38,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(Discipline::Stv, tiny(), 1, cfg);
    let initial = engine.model().params().to_vec();
    let mut pile = SyntheticPile::new(53, 3);
    let mut recovered = false;
    for _ in 0..140 {
        let batch = pile.next_batch(2, 12);
        let out = engine.train_step(&batch).unwrap();
        assert!(engine.model().params().iter().all(|p| p.is_finite()));
        match out {
            // While skipping, parameters must remain exactly the initial
            // ones (every speculative update fully rolled back).
            StepOutcome::Skipped { .. } => {
                if !recovered {
                    assert_eq!(engine.model().params(), &initial[..]);
                }
            }
            // A committed update (clipped or not) means the scaler backed
            // off far enough for training to resume.
            StepOutcome::Clipped { .. } | StepOutcome::Applied { .. } => {
                recovered = true;
            }
        }
    }
    assert!(recovered, "engine never recovered from overflow pressure");
    assert!(
        engine.stats().skipped > 50,
        "overflow pressure was not sustained"
    );
}
