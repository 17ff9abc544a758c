//! Result checks against the reference executor.

use lambada_engine::{RecordBatch, Scalar};

/// Relative tolerance for floating-point cells. Distributed aggregation
/// adds partial sums in a different order than the local reference, so
/// float sums differ in their last bits (about 1e-15 relative on these
/// workloads); every other cell, the row count and the row order must
/// match exactly.
const FLOAT_REL_TOL: f64 = 1e-9;

/// Compare a distributed result with the reference, cell by cell and in
/// order; on a mismatch, describe the first one.
pub fn same_result(got: &RecordBatch, want: &RecordBatch) -> Result<(), String> {
    if got.num_rows() != want.num_rows() || got.num_columns() != want.num_columns() {
        return Err(format!(
            "shape {}x{} != reference {}x{}",
            got.num_rows(),
            got.num_columns(),
            want.num_rows(),
            want.num_columns()
        ));
    }
    for (i, (g, w)) in got.rows().iter().zip(want.rows().iter()).enumerate() {
        for (c, (x, y)) in g.iter().zip(w.iter()).enumerate() {
            let ok = match (x, y) {
                (Scalar::Float64(p), Scalar::Float64(q)) => {
                    (p - q).abs() <= FLOAT_REL_TOL * p.abs().max(q.abs()).max(1.0)
                }
                _ => x == y,
            };
            if !ok {
                return Err(format!("row {i} column {c}: {x:?} != reference {y:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambada_engine::Column;

    fn batch(k: i64, v: f64) -> RecordBatch {
        RecordBatch::from_columns(&["k", "v"], vec![Column::I64(vec![k]), Column::F64(vec![v])])
            .expect("two columns")
    }

    #[test]
    fn floats_match_within_tolerance_and_integers_exactly() {
        assert_eq!(same_result(&batch(1, 2.0), &batch(1, 2.0)), Ok(()));
        assert_eq!(same_result(&batch(1, 1e6), &batch(1, 1e6 + 1e-6)), Ok(()));
        assert!(same_result(&batch(1, 2.0), &batch(1, 2.001)).is_err());
        assert!(same_result(&batch(1, 2.0), &batch(2, 2.0)).is_err());
    }
}
