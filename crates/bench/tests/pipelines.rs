//! The Fig. 10 harness models against a measured run.

#[test]
fn cluster_model_matches_measured_single_machine() {
    use lifestream_bench::machines::ClusterModel;
    use lifestream_bench::multicore::{run_lifestream, PatientWorkload};
    let w = PatientWorkload::synthesize(4, 2, 21);
    let p = run_lifestream(&w, 1, 8 << 30);
    assert!(!p.oom && p.mev_per_s > 0.0);
    let model = ClusterModel::default();
    let sweep = model.sweep(p.mev_per_s, 16);
    assert_eq!(sweep.len(), 16);
    assert!(
        sweep[15].mev_per_s > sweep[0].mev_per_s * 12.0,
        "near-linear scale-out"
    );
}
