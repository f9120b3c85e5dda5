//! Error metrics shared by the validation experiments.

/// Signed percentage error of `sim` against `reference`.
pub fn pct_err(sim: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (sim - reference) / reference * 100.0
    }
}

/// Mean of absolute percentage errors.
pub fn mean_abs_pct(errors: &[f64]) -> f64 {
    if errors.is_empty() {
        0.0
    } else {
        errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors() {
        assert!((pct_err(102.0, 100.0) - 2.0).abs() < 1e-12);
        assert!((pct_err(98.0, 100.0) + 2.0).abs() < 1e-12);
        assert_eq!(pct_err(5.0, 0.0), 0.0);
        assert!((mean_abs_pct(&[2.0, -4.0]) - 3.0).abs() < 1e-12);
    }
}
