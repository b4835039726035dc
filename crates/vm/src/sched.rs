//! Thread schedulers.
//!
//! Concurrency failures in the paper's evaluation manifest only under
//! particular interleavings. The VM therefore makes the schedule a
//! first-class, *seeded* input: the same `(program, inputs, schedule seed)`
//! triple always produces the identical execution, which is what lets the
//! cooperative fleet (gist-coop) explore many production schedules while
//! each individual run stays reproducible for tests.

use std::hint::select_unpredictable;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Picks which runnable thread executes the next statement.
pub trait Scheduler {
    /// Chooses one entry of `runnable` (non-empty, sorted by tid).
    /// `step` is the global step count, for quantum-based policies.
    fn pick(&mut self, runnable: &[u32], step: u64) -> u32;
}

/// Round-robin with a fixed quantum of statements.
#[derive(Clone, Debug)]
pub struct RoundRobin {
    quantum: u64,
    current: Option<u32>,
    used: u64,
}

impl RoundRobin {
    /// Creates a round-robin scheduler with the given quantum (statements
    /// per turn).
    pub fn new(quantum: u64) -> Self {
        RoundRobin {
            quantum: quantum.max(1),
            current: None,
            used: 0,
        }
    }
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, runnable: &[u32], _step: u64) -> u32 {
        if let Some(cur) = self.current {
            if self.used < self.quantum && runnable.contains(&cur) {
                self.used += 1;
                return cur;
            }
            // Rotate to the next runnable tid after `cur`.
            let next = runnable
                .iter()
                .copied()
                .find(|&t| t > cur)
                .unwrap_or(runnable[0]);
            self.current = Some(next);
            self.used = 1;
            return next;
        }
        self.current = Some(runnable[0]);
        self.used = 1;
        runnable[0]
    }
}

/// Uniformly random scheduling with a seed — the "production noise" model.
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: StdRng,
    /// Probability of preempting the current thread at each step; with
    /// probability `1 - preempt`, the previous thread continues.
    preempt: f64,
    last: Option<u32>,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed with the default preemption
    /// probability (0.2).
    pub fn new(seed: u64) -> Self {
        Self::with_preempt(seed, 0.2)
    }

    /// Creates a random scheduler with an explicit preemption probability.
    pub fn with_preempt(seed: u64, preempt: f64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
            preempt: preempt.clamp(0.0, 1.0),
            last: None,
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, runnable: &[u32], _step: u64) -> u32 {
        let choice = match self.last {
            Some(last) if runnable.contains(&last) => {
                // The keep-or-preempt draw is a coin flip no branch
                // predictor learns, so both outcomes are computed and one
                // is selected: keeping consumes one draw, preempting a
                // second one for the choice.
                let mut preempted = self.rng.clone();
                let keep = preempted.gen::<f64>() >= self.preempt;
                let kept = preempted.clone();
                let fresh = runnable[reduce(preempted.next_u64(), runnable.len())];
                self.rng = select_unpredictable(keep, kept, preempted);
                select_unpredictable(keep, last, fresh)
            }
            _ => runnable[reduce(self.rng.next_u64(), runnable.len())],
        };
        self.last = Some(choice);
        choice
    }
}

/// `gen_range(0..n)` of the draw `draw`. A lone runnable thread needs no
/// division, but still consumes the draw, so the RNG stream (and every
/// later pick) is unchanged.
fn reduce(draw: u64, n: usize) -> usize {
    if n == 1 {
        0
    } else {
        (draw % n as u64) as usize
    }
}

/// Replays an explicit schedule: a list of tids, consumed one per step.
/// When the list is exhausted (or the scheduled tid is not runnable),
/// falls back to the lowest runnable tid. Used by tests to force the
/// exact interleavings of the paper's figures.
#[derive(Clone, Debug)]
pub struct FixedSchedule {
    script: Vec<u32>,
    pos: usize,
}

impl FixedSchedule {
    /// Creates a fixed schedule from a script of tids.
    pub fn new(script: Vec<u32>) -> Self {
        FixedSchedule { script, pos: 0 }
    }
}

impl Scheduler for FixedSchedule {
    fn pick(&mut self, runnable: &[u32], _step: u64) -> u32 {
        while self.pos < self.script.len() {
            let want = self.script[self.pos];
            self.pos += 1;
            if runnable.contains(&want) {
                return want;
            }
        }
        runnable[0]
    }
}

/// A serializable description of a scheduler, so run configurations can be
/// shipped between Gist's server and clients.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedulerKind {
    /// [`RoundRobin`] with the given quantum.
    RoundRobin {
        /// Statements per turn.
        quantum: u64,
    },
    /// [`RandomScheduler`] with seed and preemption probability.
    Random {
        /// RNG seed.
        seed: u64,
        /// Preemption probability per step.
        preempt: f64,
    },
    /// [`FixedSchedule`] with an explicit script.
    Fixed {
        /// The tid script.
        script: Vec<u32>,
    },
}

impl SchedulerKind {
    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::RoundRobin { quantum } => Box::new(RoundRobin::new(*quantum)),
            SchedulerKind::Random { seed, preempt } => {
                Box::new(RandomScheduler::with_preempt(*seed, *preempt))
            }
            SchedulerKind::Fixed { script } => Box::new(FixedSchedule::new(script.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_after_quantum() {
        let mut rr = RoundRobin::new(2);
        let runnable = vec![0, 1, 2];
        let picks: Vec<u32> = (0..8).map(|s| rr.pick(&runnable, s)).collect();
        assert_eq!(picks, vec![0, 0, 1, 1, 2, 2, 0, 0]);
    }

    #[test]
    fn round_robin_skips_non_runnable() {
        let mut rr = RoundRobin::new(1);
        assert_eq!(rr.pick(&[0, 1], 0), 0);
        // Thread 1 no longer runnable: wraps back to 0.
        assert_eq!(rr.pick(&[0], 1), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let runnable = vec![0, 1, 2, 3];
        let picks = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..64).map(|i| s.pick(&runnable, i)).collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8), "different seeds should differ");
    }

    #[test]
    fn random_pick_draws_like_gen_range() {
        // The branch-free pick must leave the RNG stream exactly where
        // `gen::<f64>()` and `gen_range` would, including when one thread
        // is runnable.
        let sets: [&[u32]; 7] = [
            &[0, 1, 2],
            &[4],
            &[1, 3],
            &[2],
            &[0, 1, 2, 3, 4],
            &[0, 2, 3, 5],
            &[0, 1, 2, 3, 4, 5, 6],
        ];
        for preempt in [0.0, 0.1, 0.5, 0.65, 1.0, f64::NAN] {
            let mut s = RandomScheduler::with_preempt(5, preempt);
            let mut rng = StdRng::seed_from_u64(5);
            let mut last = None;
            for i in 0..2_000 {
                let runnable = sets[i % sets.len()];
                let got = s.pick(runnable, i as u64);
                let want = match last {
                    Some(l) if runnable.contains(&l) && rng.gen::<f64>() >= preempt => l,
                    _ => runnable[rng.gen_range(0..runnable.len())],
                };
                assert_eq!(got, want, "preempt {preempt}, pick {i}");
                last = Some(want);
            }
        }
    }

    #[test]
    fn random_respects_runnable_set() {
        let mut s = RandomScheduler::new(3);
        for i in 0..100 {
            let pick = s.pick(&[2, 5], i);
            assert!(pick == 2 || pick == 5);
        }
    }

    #[test]
    fn fixed_schedule_replays_script() {
        let mut s = FixedSchedule::new(vec![1, 1, 0, 1]);
        let runnable = vec![0, 1];
        assert_eq!(s.pick(&runnable, 0), 1);
        assert_eq!(s.pick(&runnable, 1), 1);
        assert_eq!(s.pick(&runnable, 2), 0);
        assert_eq!(s.pick(&runnable, 3), 1);
        // Script exhausted: lowest runnable.
        assert_eq!(s.pick(&runnable, 4), 0);
    }

    #[test]
    fn fixed_schedule_skips_blocked_entries() {
        let mut s = FixedSchedule::new(vec![3, 1]);
        // 3 is not runnable; falls through to 1.
        assert_eq!(s.pick(&[0, 1], 0), 1);
    }

    #[test]
    fn scheduler_kind_builds_equivalent_scheduler() {
        let kind = SchedulerKind::Random {
            seed: 11,
            preempt: 0.5,
        };
        let mut a = kind.build();
        let mut b = RandomScheduler::with_preempt(11, 0.5);
        let runnable = vec![0, 1, 2];
        for i in 0..32 {
            assert_eq!(a.pick(&runnable, i), b.pick(&runnable, i));
        }
    }
}
