//! Open-loop arrival-time generators.
//!
//! The serving runtime is *open-loop*: queries arrive on their own clock
//! whether or not the accelerator keeps up, which is what makes queueing,
//! batching, and tail latency measurable (§1's "dynamically variable
//! deployment conditions"). Three processes cover the evaluation regimes:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless steady traffic.
//! * [`ArrivalProcess::Mmpp`] — a two-state Markov-modulated Poisson
//!   process alternating calm and burst phases (ICU admission waves).
//! * [`ArrivalProcess::DiurnalRamp`] — a sinusoidally rate-modulated
//!   Poisson process (day/night load swing), sampled by thinning.
//!
//! All generators draw from the deterministic [`DetRng`], so a `(process,
//! n, seed)` triple always yields the same timestamps, on every platform.

use sushi_tensor::DetRng;

use crate::error::SushiError;

/// An open-loop arrival process over simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate_qps` queries per second.
    Poisson {
        /// Mean arrival rate, queries per second.
        rate_qps: f64,
    },
    /// Markov-modulated Poisson process: exponential sojourns in a calm
    /// state (rate `calm_qps`) and a burst state (rate `burst_qps`).
    Mmpp {
        /// Arrival rate while calm, queries per second.
        calm_qps: f64,
        /// Arrival rate while bursting, queries per second.
        burst_qps: f64,
        /// Mean calm-sojourn duration, ms.
        mean_calm_ms: f64,
        /// Mean burst-sojourn duration, ms.
        mean_burst_ms: f64,
    },
    /// Non-homogeneous Poisson with rate
    /// `λ(t) = base + (peak − base) · (1 − cos(2πt/period)) / 2`,
    /// sampled by Lewis–Shedler thinning against `peak_qps`.
    DiurnalRamp {
        /// Trough arrival rate, queries per second.
        base_qps: f64,
        /// Crest arrival rate, queries per second.
        peak_qps: f64,
        /// Period of one simulated "day", ms.
        period_ms: f64,
    },
}

/// Samples an exponential inter-arrival gap (ms) at `rate_per_ms`.
fn exp_gap_ms(rng: &mut DetRng, rate_per_ms: f64) -> f64 {
    debug_assert!(rate_per_ms > 0.0);
    // 1 - u is in (0, 1]; ln is finite.
    -(1.0 - rng.next_f64()).ln() / rate_per_ms
}

impl ArrivalProcess {
    /// Generates `n` non-decreasing arrival timestamps (ms from stream
    /// start), deterministically from `seed`.
    ///
    /// # Errors
    /// Returns [`SushiError::Config`] if any rate or duration parameter is
    /// non-positive or non-finite, or if a diurnal ramp has
    /// `peak_qps < base_qps`.
    pub fn timestamps(&self, n: usize, seed: u64) -> Result<Vec<f64>, SushiError> {
        self.validate().map_err(|what| SushiError::Config(what.into()))?;
        let mut rng = DetRng::new(seed ^ 0xA881_07A1);
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate_qps } => {
                let rate = rate_qps / 1e3;
                let mut t = 0.0;
                for _ in 0..n {
                    t += exp_gap_ms(&mut rng, rate);
                    out.push(t);
                }
            }
            ArrivalProcess::Mmpp { calm_qps, burst_qps, mean_calm_ms, mean_burst_ms } => {
                let mut t = 0.0;
                let mut bursting = false;
                let mut phase_end = exp_gap_ms(&mut rng, 1.0 / mean_calm_ms);
                while out.len() < n {
                    let rate = if bursting { burst_qps } else { calm_qps } / 1e3;
                    let candidate = t + exp_gap_ms(&mut rng, rate);
                    if candidate <= phase_end {
                        t = candidate;
                        out.push(t);
                    } else {
                        t = phase_end;
                        bursting = !bursting;
                        let mean = if bursting { mean_burst_ms } else { mean_calm_ms };
                        phase_end = t + exp_gap_ms(&mut rng, 1.0 / mean);
                    }
                }
            }
            ArrivalProcess::DiurnalRamp { base_qps, peak_qps, period_ms } => {
                let peak = peak_qps / 1e3;
                let mut t = 0.0;
                while out.len() < n {
                    t += exp_gap_ms(&mut rng, peak);
                    let phase = (std::f64::consts::TAU * t / period_ms).cos();
                    let lambda = (base_qps + (peak_qps - base_qps) * 0.5 * (1.0 - phase)) / 1e3;
                    if rng.next_f64() * peak < lambda {
                        out.push(t);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Long-run mean arrival rate in queries per second.
    #[must_use]
    pub fn mean_rate_qps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_qps } => rate_qps,
            ArrivalProcess::Mmpp { calm_qps, burst_qps, mean_calm_ms, mean_burst_ms } => {
                (calm_qps * mean_calm_ms + burst_qps * mean_burst_ms)
                    / (mean_calm_ms + mean_burst_ms)
            }
            ArrivalProcess::DiurnalRamp { base_qps, peak_qps, .. } => {
                f64::midpoint(base_qps, peak_qps)
            }
        }
    }

    fn validate(&self) -> Result<(), &'static str> {
        let ok = |v: f64| v.is_finite() && v > 0.0;
        match *self {
            ArrivalProcess::Poisson { rate_qps } if !ok(rate_qps) => {
                Err("Poisson rate must be finite and positive")
            }
            ArrivalProcess::Mmpp { calm_qps, burst_qps, mean_calm_ms, mean_burst_ms }
                if !(ok(calm_qps) && ok(burst_qps) && ok(mean_calm_ms) && ok(mean_burst_ms)) =>
            {
                Err("MMPP parameters must be finite and positive")
            }
            ArrivalProcess::DiurnalRamp { base_qps, peak_qps, period_ms }
                if !(ok(base_qps) && ok(peak_qps) && ok(period_ms)) =>
            {
                Err("diurnal parameters must be finite and positive")
            }
            ArrivalProcess::DiurnalRamp { base_qps, peak_qps, .. } if peak_qps < base_qps => {
                Err("diurnal peak must be >= base")
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap(ts: &[f64]) -> f64 {
        ts.last().unwrap() / ts.len() as f64
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let p = ArrivalProcess::Poisson { rate_qps: 200.0 };
        let a = p.timestamps(500, 7).unwrap();
        let b = p.timestamps(500, 7).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(a, p.timestamps(500, 8).unwrap());
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let p = ArrivalProcess::Poisson { rate_qps: 100.0 };
        let ts = p.timestamps(4000, 1).unwrap();
        // 100 qps => 10 ms mean gap; LLN keeps a 4000-sample mean within 10%.
        let gap = mean_gap(&ts);
        assert!((gap - 10.0).abs() < 1.0, "mean gap {gap} ms");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        let cv2 = |ts: &[f64]| {
            let gaps: Vec<f64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64;
            var / (m * m)
        };
        let mmpp = ArrivalProcess::Mmpp {
            calm_qps: 50.0,
            burst_qps: 1000.0,
            mean_calm_ms: 400.0,
            mean_burst_ms: 100.0,
        };
        let poisson = ArrivalProcess::Poisson { rate_qps: mmpp.mean_rate_qps() };
        // A Poisson process has squared CV 1; rate modulation pushes it up.
        assert!(
            cv2(&mmpp.timestamps(3000, 3).unwrap())
                > 1.5 * cv2(&poisson.timestamps(3000, 3).unwrap())
        );
    }

    #[test]
    fn mmpp_mean_rate_interpolates_sojourns() {
        let p = ArrivalProcess::Mmpp {
            calm_qps: 100.0,
            burst_qps: 300.0,
            mean_calm_ms: 300.0,
            mean_burst_ms: 100.0,
        };
        assert!((p.mean_rate_qps() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_ramp_modulates_local_rate() {
        let p = ArrivalProcess::DiurnalRamp { base_qps: 20.0, peak_qps: 400.0, period_ms: 4000.0 };
        let ts = p.timestamps(3000, 5).unwrap();
        // Count arrivals near troughs (phase around 0) vs crests (phase
        // around 0.5) of each period.
        let phase = |t: f64| (t / 4000.0).fract();
        let trough = ts.iter().filter(|&&t| phase(t) < 0.1 || phase(t) > 0.9).count();
        let crest = ts.iter().filter(|&&t| (phase(t) - 0.5).abs() < 0.1).count();
        assert!(crest > 3 * trough, "crest {crest} !>> trough {trough}");
    }

    #[test]
    fn zero_rate_rejected() {
        use ArrivalProcess::{DiurnalRamp, Mmpp, Poisson};
        let rejected = |p: ArrivalProcess, why: &str| {
            let err = p.timestamps(1, 0).unwrap_err();
            assert!(matches!(&err, SushiError::Config(m) if m.contains(why)), "{p:?}: {err}");
        };
        rejected(Poisson { rate_qps: 0.0 }, "positive");
        let mmpp = Mmpp { calm_qps: 0.0, burst_qps: 50.0, mean_calm_ms: 40.0, mean_burst_ms: 10.0 };
        rejected(mmpp, "positive");
        rejected(DiurnalRamp { base_qps: 0.0, peak_qps: 10.0, period_ms: 100.0 }, "positive");
        rejected(DiurnalRamp { base_qps: 10.0, peak_qps: 1.0, period_ms: 100.0 }, "peak");
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        // An infinite diurnal peak once passed validation and then hung the
        // thinning loop: every gap was 0 and every λ(0) NaN. Every
        // parameter of every variant rejects ∞, NaN and 0 as a config
        // error.
        use ArrivalProcess::{DiurnalRamp, Mmpp, Poisson};
        type Make = fn(f64) -> ArrivalProcess;
        let cases: [(&str, Make); 8] = [
            ("base_qps", |v| DiurnalRamp { base_qps: v, peak_qps: 10.0, period_ms: 100.0 }),
            ("peak_qps", |v| DiurnalRamp { base_qps: 1.0, peak_qps: v, period_ms: 100.0 }),
            ("period_ms", |v| DiurnalRamp { base_qps: 1.0, peak_qps: 10.0, period_ms: v }),
            ("rate_qps", |v| Poisson { rate_qps: v }),
            ("calm_qps", |v| Mmpp {
                calm_qps: v,
                burst_qps: 50.0,
                mean_calm_ms: 40.0,
                mean_burst_ms: 10.0,
            }),
            ("burst_qps", |v| Mmpp {
                calm_qps: 1.0,
                burst_qps: v,
                mean_calm_ms: 40.0,
                mean_burst_ms: 10.0,
            }),
            ("mean_calm_ms", |v| Mmpp {
                calm_qps: 1.0,
                burst_qps: 50.0,
                mean_calm_ms: v,
                mean_burst_ms: 10.0,
            }),
            ("mean_burst_ms", |v| Mmpp {
                calm_qps: 1.0,
                burst_qps: 50.0,
                mean_calm_ms: 40.0,
                mean_burst_ms: v,
            }),
        ];
        for (field, process) in cases {
            assert_eq!(process(5.0).timestamps(3, 1).unwrap().len(), 3, "{field} = 5 runs");
            for v in [f64::INFINITY, f64::NAN, 0.0] {
                let run = process(v).timestamps(3, 1);
                assert!(matches!(run, Err(SushiError::Config(_))), "{field} = {v} was accepted");
            }
        }
    }
}
