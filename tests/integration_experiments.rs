//! Smoke tests over the experiment harness: the headline experiments run at
//! the tiny scale and reproduce the qualitative shape the paper reports.
//!
//! Seven of them are also pinned as goldens: the rendered table (where it
//! holds no timing) and the bit pattern of every `f64` the result carries. Seeded outputs are meant to be
//! byte-stable across refactors, so a golden that moves is a behaviour change
//! to explain, not a number to re-record.

use fair_bench::datasets::ExperimentScale;
use fair_bench::experiments::{baselines_cmp, compas, table1, utility};
use fair_core::metrics::norm;

fn scale() -> ExperimentScale {
    ExperimentScale {
        dca_iterations: 60,
        ..ExperimentScale::tiny()
    }
}

#[test]
fn table_one_shape_holds_end_to_end() {
    let result = table1::run_table1(&scale()).unwrap();
    let baseline = &result.rows[0];
    let dca = &result.rows[2];
    assert!(norm(&baseline.test_disparity) > 0.15);
    assert!(norm(&dca.test_disparity) < norm(&baseline.test_disparity) * 0.5);
    assert!(result.render().contains("Norm"));
}

#[test]
fn utility_remains_high_after_correction() {
    let result = utility::run_fig1(&scale()).unwrap();
    assert!(result.points.iter().all(|p| p.ndcg > 0.8 && p.ndcg <= 1.0));
}

#[test]
fn quota_is_weaker_than_dca_at_small_k() {
    let quota = baselines_cmp::run_quota(&scale(), 0.7).unwrap();
    let table1 = table1::run_table1(&scale()).unwrap();
    let dca_norm = norm(&table1.rows[2].test_disparity);
    // Quota norm at k = 5% (first grid point).
    let quota_norm = quota.points[0].2;
    assert!(
        dca_norm < quota_norm,
        "DCA {dca_norm} vs quota {quota_norm}"
    );
}

#[test]
fn compas_log_discounted_reduces_average_disparity() {
    let result = compas::run_fig10c(&scale()).unwrap();
    let before: f64 =
        result.rows.iter().map(|r| norm(&r.before)).sum::<f64>() / result.rows.len() as f64;
    let after: f64 =
        result.rows.iter().map(|r| norm(&r.after)).sum::<f64>() / result.rows.len() as f64;
    assert!(after < before);
}

/// The bit patterns of `values`, so goldens compare exactly.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn table_one_matches_its_golden() {
    let result = table1::run_table1(&ExperimentScale::tiny()).unwrap();
    assert_eq!(result.render(), TABLE1_TEXT);
    let mut values = vec![result.k];
    for row in &result.rows {
        values.extend(&row.bonus);
        values.extend(&row.train_disparity);
        values.extend(&row.test_disparity);
    }
    assert_eq!(bits(&values), TABLE1_BITS);
}

#[test]
fn figure_one_matches_its_golden() {
    let result = utility::run_fig1(&ExperimentScale::tiny()).unwrap();
    assert_eq!(result.render(), FIG1_TEXT);
    let mut values = result.bonus.clone();
    for point in &result.points {
        values.push(point.k);
        values.extend(&point.disparity);
        values.push(point.norm);
        values.push(point.ndcg);
    }
    assert_eq!(bits(&values), FIG1_BITS);
}

#[test]
fn figure_10c_matches_its_golden() {
    let result = compas::run_fig10c(&ExperimentScale::tiny()).unwrap();
    assert_eq!(result.render("Figure 10c"), FIG10C_TEXT);
    let mut values = Vec::new();
    for row in &result.rows {
        values.push(row.k);
        values.extend(&row.before);
        values.extend(&row.after);
        values.extend(&row.bonus);
    }
    assert_eq!(bits(&values), FIG10C_BITS);
}

#[test]
fn figure_6_quota_matches_its_golden() {
    let result = baselines_cmp::run_quota(&ExperimentScale::tiny(), 0.7).unwrap();
    assert_eq!(result.render(), FIG6_TEXT);
    let mut values = vec![result.reserve_fraction];
    for ((k, disparity, norm), (base_k, base_norm)) in
        result.points.iter().zip(&result.baseline_norms)
    {
        values.push(*k);
        values.extend(disparity);
        values.push(*norm);
        values.push(*base_k);
        values.push(*base_norm);
    }
    assert_eq!(bits(&values), FIG6_BITS);
}

/// Figure 7's render prints wall-clock timings, so only its `f64` fields
/// are pinned.
#[test]
fn figure_7_delta2_matches_its_golden() {
    let result = baselines_cmp::run_delta2_comparison(&ExperimentScale::tiny()).unwrap();
    let mut values = Vec::new();
    for p in &result.points {
        values.extend([
            p.proportion,
            p.dca_norm,
            p.dca_ndcg,
            p.delta2_norm,
            p.delta2_ndcg,
        ]);
    }
    assert_eq!(bits(&values), FIG7_BITS);
}

/// At this scale the FA*IR row equals the baseline row: the golden pins the
/// FA*IR path (subgroup search, mtables, re-rank, disparity) but not a
/// re-ranking that moves anyone.
#[test]
fn table_two_fastar_matches_its_golden() {
    let result =
        baselines_cmp::run_fastar_comparison(&ExperimentScale::tiny(), &[16, 17, 18, 19], 0.05)
            .unwrap();
    assert_eq!(result.render(), TABLE2_TEXT);
    let mut values = vec![result.k];
    values.extend(&result.dca_bonus);
    for row in &result.rows {
        values.extend(&row.disparity);
        values.push(row.norm);
    }
    assert_eq!(bits(&values), TABLE2_BITS);
}

#[test]
fn exposure_ddp_matches_its_golden() {
    let result = baselines_cmp::run_exposure(&ExperimentScale::tiny()).unwrap();
    assert_eq!(result.render(), EXPOSURE_TEXT);
    let mut values = vec![result.ddp_before, result.ddp_after];
    values.extend(&result.bonus);
    assert_eq!(bits(&values), EXPOSURE_BITS);
}

const TABLE1_TEXT: &str = r#"== Table I — school disparity before/after bonus points (k = 5%) ==
Setting   Cohort     low_income  ell     special_ed  eni     Norm 
------------------------------------------------------------------
Baseline  Training   -0.325      -0.086  -0.173      -0.121  0.397
Baseline  Test       -0.345      -0.080  -0.169      -0.119  0.410
Core DCA  Bonus pts  8.0         5.5     9.0         5.5          
Core DCA  Training   -0.040      -0.066  -0.073      -0.068  0.126
Core DCA  Test       -0.055      -0.040  -0.109      -0.059  0.141
DCA       Bonus pts  9.0         8.0     10.0        8.0          
DCA       Training   -0.005      -0.060  -0.063      -0.058  0.105
DCA       Test       -0.005      -0.014  -0.084      -0.040  0.094
"#;

#[rustfmt::skip]
const TABLE1_BITS: [u64; 33] = [
    0x3fa999999999999a, 0xbfd4d0e560418938, 0xbfb5e353f7ced917, 0xbfc624dd2f1a9fbf,
    0xbfbee579a1072238, 0xbfd6189374bc6a7f, 0xbfb45a1cac083127, 0xbfc5916872b020c5,
    0xbfbe77770c7eb358, 0x4020000000000000, 0x4016000000000000, 0x4022000000000000,
    0x4016000000000000, 0xbfa49ba5e353f7d0, 0xbfb0c49ba5e353f8, 0xbfb2b020c49ba5e4,
    0xbfb14a6d972841e0, 0xbfac49ba5e353f80, 0xbfa4395810624dd4, 0xbfbbc6a7ef9db22e,
    0xbfae39733751f4b0, 0x4022000000000000, 0x4020000000000000, 0x4024000000000000,
    0x4020000000000000, 0xbf75810624dd2f80, 0xbfaef9db22d0e560, 0xbfb020c49ba5e354,
    0xbfaddbe71d4047a0, 0xbf75810624dd2f00, 0xbf8db22d0e560418, 0xbfb5604189374bc7,
    0xbfa46054e2ce7b70,
];

const FIG1_TEXT: &str = r#"== Figure 1 — nDCG@k on the test cohort ==
k     nDCG    Disparity norm
----------------------------
0.05  0.9702  0.094         
0.10  0.9750  0.088         
0.15  0.9749  0.080         
0.20  0.9750  0.071         
0.25  0.9765  0.070         
0.30  0.9780  0.067         
0.35  0.9786  0.060         
0.40  0.9787  0.047         
0.45  0.9802  0.045         
0.50  0.9806  0.040         
"#;

#[rustfmt::skip]
const FIG1_BITS: [u64; 74] = [
    0x4022000000000000, 0x4020000000000000, 0x4024000000000000, 0x4020000000000000,
    0x3fa999999999999a, 0xbf75810624dd2f00, 0xbf8db22d0e560418, 0xbfb5604189374bc7,
    0xbfa46054e2ce7b70, 0x3fb801b0c31ee918, 0x3fef0bfaaca9b3ec, 0x3fb999999999999a,
    0xbf84fdf3b645a1c0, 0xbf93f7ced916872c, 0xbfb374bc6a7ef9dc, 0xbfa35863c37cdf80,
    0x3fb6729f6e671f89, 0x3fef33005d2cb2b4, 0x3fc3333333333334, 0x3f694237fa89e600,
    0xbf9916872b020c4c, 0xbfb1f671529a485e, 0xbf9e0bc10b974fc0, 0x3fb47871ac0ddfd1,
    0x3fef329496672de4, 0x3fc999999999999a, 0x3f7db22d0e560400, 0xbf96872b020c49bc,
    0xbfafdf3b645a1cac, 0xbf99f609ff0e95c0, 0x3fb2333a35a1c144, 0x3fef3344ae6cffb6,
    0x3fd0000000000000, 0x3f83f7ced9168700, 0xbf93f7ced916872c, 0xbfaf7ced916872b0,
    0xbf99dcd468a714c0, 0x3fb1e963e480c87c, 0x3fef3f2241ae5b7b, 0x3fd3333333333334,
    0x3f83f7ced9168700, 0xbf8bfd44f3078268, 0xbfaf3b645a1cac08, 0xbf96d0ec576130c0,
    0x3fb12bf2335a063a, 0x3fef4bbbf3b78515, 0x3fd6666666666667, 0x3f8cbec1aeaa46c0,
    0xbf8f28aadc994eb8, 0xbfaaa91b358a62e4, 0xbf951b843d998b60, 0x3fae91c605913430,
    0x3fef510c6d9b1dae, 0x3fd999999999999a, 0x3f8a5e353f7ced80, 0xbf92b020c49ba5e4,
    0xbfa3126e978d4fe0, 0xbf91b199de54c020, 0x3fa7eec42dc6b392, 0x3fef51bf3c5f54f7,
    0x3fdccccccccccccd, 0x3f863e59a829dec0, 0xbf9242e6bdc80578, 0xbfa2dbd194237fac,
    0xbf8fe3a837cf7880, 0x3fa718fd3c5ac20a, 0x3fef5e24f89c8d72, 0x3fe0000000000000,
    0x3f84fdf3b645a1c0, 0xbf8ba5e353f7cee0, 0xbfa0e5604189374c, 0xbf8e169076f7fe80,
    0x3fa46e0186268f5b, 0x3fef61722c2ac58f,
];

const FIG10C_TEXT: &str = r#"== Figure 10c ==
k     Norm before  Norm after  african_american (after)  caucasian (after)  hispanic (after)  other (after)  asian (after)  native_american (after)
---------------------------------------------------------------------------------------------------------------------------------------------------
0.05  0.354        0.444       -0.338                    +0.284             +0.040            +0.023         -0.005         -0.004                 
0.10  0.368        0.041       +0.025                    -0.029             +0.014            -0.000         -0.005         -0.004                 
0.15  0.331        0.033       +0.026                    +0.004             -0.011            -0.017         -0.003         +0.001                 
0.20  0.316        0.139       +0.112                    -0.081             -0.010            -0.017         -0.004         -0.000                 
0.25  0.303        0.119       +0.100                    -0.055             -0.022            -0.022         -0.003         +0.002                 
0.30  0.292        0.145       +0.116                    -0.084             -0.014            -0.016         -0.003         +0.001                 
0.35  0.270        0.161       +0.129                    -0.093             -0.014            -0.019         -0.003         +0.000                 
0.40  0.251        0.129       +0.104                    -0.074             -0.011            -0.016         -0.004         +0.001                 
0.45  0.229        0.156       +0.121                    -0.097             -0.008            -0.013         -0.004         +0.000                 
0.50  0.209        0.108       +0.088                    -0.059             -0.013            -0.016         -0.001         +0.001                 
"#;

#[rustfmt::skip]
const FIG10C_BITS: [u64; 190] = [
    0x3fa999999999999a, 0x3fd206d3a06d3a06, 0xbfcacb6f46508dff, 0xbfa44f3078263ab5,
    0xbf983c131d5acb70, 0xbf75d867c3ece2a5, 0xbf6e098ead65b7a3, 0xbfd5a740da740da8,
    0x3fd22d0e56041894, 0x3fa4a6921735ee42, 0x3f978d4fdf3b645a, 0xbf75d867c3ece2a5,
    0xbf6e098ead65b7a3, 0xbff8000000000000, 0x8000000000000000, 0xbfe0000000000000,
    0xbfe0000000000000, 0x0000000000000000, 0x8000000000000000, 0x3fb999999999999a,
    0x3fd2aaaaaaaaaaaa, 0xbfcc131d5acb6f46, 0xbfa29a485cd7b900, 0xbf9ba5e353f7ceda,
    0xbf75d867c3ece2a5, 0xbf6e098ead65b7a3, 0x3f999999999999a0, 0xbf9e098ead65b7a0,
    0x3f8bfd44f3078268, 0xbf35d867c3ece300, 0xbf75d867c3ece2a5, 0xbf6e098ead65b7a3,
    0xbff8000000000000, 0x8000000000000000, 0xbfe0000000000000, 0xbfe0000000000000,
    0x0000000000000000, 0x8000000000000000, 0x3fc3333333333334, 0x3fd09abcdf012346,
    0xbfc9f0fb38a94d24, 0xbf9af72015d867c4, 0xbf95f5884e4773d4, 0xbf75d867c3ece2a5,
    0xbf6e098ead65b7a3, 0x3f9abcdf01234560, 0x3f70624dd2f1aa00, 0xbf8612a8d8a20500,
    0xbf916872b020c49c, 0xbf697c790f3f086b, 0x3f497c790f3f086c, 0xbff8000000000000,
    0x8000000000000000, 0xbfe0000000000000, 0xbfe0000000000000, 0x0000000000000000,
    0x8000000000000000, 0x3fc999999999999a, 0x3fd01b4e81b4e81c, 0xbfc7ced916872b02,
    0xbf9e60f04c756b2e, 0xbf9ba5e353f7ceda, 0xbf75d867c3ece2a5, 0xbf6e098ead65b7a3,
    0x3fbc962fc962fc98, 0xbfb4bc6a7ef9db24, 0xbf83cc1e098ead68, 0xbf916872b020c49c,
    0xbf6e098ead65b7a2, 0xbf35d867c3ece2a0, 0xbff8000000000000, 0x8000000000000000,
    0xbfe0000000000000, 0xbfe0000000000000, 0x0000000000000000, 0x8000000000000000,
    0x3fd0000000000000, 0x3fcec33e1f671528, 0xbfc735ee402bb0d0, 0xbf9af72015d867c4,
    0xbf9af72015d867c5, 0xbf70624dd2f1a9fc, 0xbf631d5acb6f4650, 0x3fb9af72015d8678,
    0xbfabfd44f3078268, 0xbf96de8ca11bfd44, 0xbf96de8ca11bfd46, 0xbf65d867c3ece2a5,
    0x3f5b4e81b4e81b4e, 0xbff8000000000000, 0x8000000000000000, 0xbfe0000000000000,
    0xbfe0000000000000, 0x0000000000000000, 0x8000000000000000, 0x3fd3333333333334,
    0x3fce147ae147ae14, 0xbfc5884e4773d366, 0xbfa0e5604189374b, 0xbf9cc928bb817aa8,
    0xbf714b5225c6336d, 0xbf57aa706995f588, 0x3fbdb97530eca860, 0xbfb57275dfafe684,
    0xbf8ce64945dc0bd8, 0xbf90452d489718ce, 0xbf697c790f3f086b, 0x3f497c790f3f086c,
    0xbff8000000000000, 0x8000000000000000, 0xbfe0000000000000, 0xbfe0000000000000,
    0x0000000000000000, 0x8000000000000000, 0x3fd6666666666667, 0x3fcb46b46b46b46c,
    0xbfc4b30dc0382c79, 0xbf9903cdad7eaef4, 0xbf9648c0b50112a2, 0xbf71f1c2f3397108,
    0xbf4a86c724c437c8, 0x3fc08c6f2d593bf8, 0xbfb7d835d548d9ac, 0xbf8c9310df226d08,
    0xbf935bc5187a7d6a, 0xbf6c163c450bfed4, 0x3f22b97d835d5490, 0xbff8000000000000,
    0x8000000000000000, 0xbfe0000000000000, 0xbfe0000000000000, 0x0000000000000000,
    0x8000000000000000, 0x3fd999999999999a, 0x3fc97e4b17e4b180, 0xbfc3020c49ba5e36,
    0xbf978d4fdf3b6458, 0xbf983c131d5acb70, 0xbf6e098ead65b7a2, 0xbf35d867c3ece2a0,
    0x3fbaaaaaaaaaaaa8, 0xbfb2d0e560418938, 0xbf8735ee402bb0d0, 0xbf908dfea27983c2,
    0xbf6e098ead65b7a2, 0x3f40624dd2f1a9fc, 0xbff8000000000000, 0x8000000000000000,
    0xbfe0000000000000, 0xbfe0000000000000, 0x0000000000000000, 0x8000000000000000,
    0x3fdccccccccccccd, 0x3fc6dfc3518a6dfc, 0xbfc1fa1563e59a83, 0xbf9058984f7e2440,
    0xbf92eccf3a2da9ae, 0xbf6f8deb37729cb6, 0x3f036b06e70b7440, 0x3fbef50061172280,
    0xbfb8c4004dac1b9c, 0xbf800136b06e70b8, 0xbf89b6ba23f42ac8, 0xbf6f8deb37729cb6,
    0x3f036b06e70b7440, 0xbff8000000000000, 0x8000000000000000, 0xbfe0000000000000,
    0xbfe0000000000000, 0x0000000000000000, 0x8000000000000000, 0x3fe0000000000000,
    0x3fc508dfea27983c, 0xbfc04c756b2dbd1a, 0xbf900aec33e1f670, 0xbf916872b020c49c,
    0xbf70624dd2f1a9fc, 0xbf35d867c3ece2a0, 0x3fb69d0369d036a0, 0xbfae60f04c756b30,
    0xbf8a9fbe76c8b438, 0xbf900aec33e1f672, 0xbf55d867c3ece2a4, 0x3f50624dd2f1a9fe,
    0xbff8000000000000, 0x8000000000000000, 0xbfe0000000000000, 0xbfe0000000000000,
    0x0000000000000000, 0x8000000000000000,
];

const FIG6_TEXT: &str = r#"== Figure 6 — single quota (70% of seats reserved for any protected group) ==
k     Baseline norm  Quota norm  low_income  ell     special_ed  eni   
-----------------------------------------------------------------------
0.05  0.410          0.167       -0.050      -0.050  -0.139      -0.062
0.10  0.319          0.160       -0.053      -0.060  -0.126      -0.059
0.15  0.294          0.158       -0.054      -0.048  -0.130      -0.053
0.20  0.267          0.159       -0.051      -0.048  -0.134      -0.050
0.25  0.250          0.154       -0.051      -0.050  -0.130      -0.045
0.30  0.223          0.150       -0.049      -0.050  -0.126      -0.042
0.35  0.209          0.141       -0.052      -0.049  -0.115      -0.040
0.40  0.194          0.132       -0.054      -0.046  -0.105      -0.038
0.45  0.178          0.128       -0.056      -0.042  -0.101      -0.034
0.50  0.162          0.124       -0.059      -0.041  -0.095      -0.035
"#;

#[rustfmt::skip]
const FIG6_BITS: [u64; 81] = [
    0x3fe6666666666666, 0x3fa999999999999a, 0xbfa9ba5e353f7cf0, 0xbfa95810624dd2f2,
    0xbfc1ba5e353f7cee, 0xbfaff653dd87bd30, 0x3fc5707a5cdc4135, 0x3fa999999999999a,
    0x3fda3ce94538efc6, 0x3fb999999999999a, 0xbfab020c49ba5e40, 0xbfae76c8b4395811,
    0xbfc020c49ba5e354, 0xbfae6e8773482460, 0x3fc48855efe732b9, 0x3fb999999999999a,
    0x3fd46b0e6fb8b3b8, 0x3fc3333333333334, 0xbfab6f46508dfea0, 0xbfa87d9c54a69218,
    0xbfc0a94d242e6bdd, 0xbfab288ff84d4330, 0x3fc43462dad94341, 0x3fc3333333333334,
    0x3fd2ccfc2b02a94b, 0x3fc999999999999a, 0xbfaa5e353f7ced90, 0xbfa8b4395810624f,
    0xbfc116872b020c4a, 0xbfa95988b59bba10, 0x3fc45752352f5054, 0x3fc999999999999a,
    0x3fd11cc8028cb02f, 0x3fd0000000000000, 0xbfaa3d70a3d70a40, 0xbfa95810624dd2f2,
    0xbfc09374bc6a7efa, 0xbfa6fb590930bb20, 0x3fc3c5c3de81d255, 0x3fd0000000000000,
    0x3fd005efce5ca1c9, 0x3fd3333333333334, 0xbfa8dfea27983c10, 0xbfa9c54a69217360,
    0xbfc020c49ba5e354, 0xbfa5963c3d4e09e0, 0x3fc3386007e4b188, 0x3fd3333333333334,
    0x3fcc93a457dd1156, 0x3fd6666666666667, 0xbfaad33c8ff1f4e0, 0xbfa8fa70eebd004c,
    0xbfbd6bf577a9661c, 0xbfa473874ebac600, 0x3fc211e12cd04772, 0x3fd6666666666667,
    0x3fcabd1b828760b2, 0x3fd999999999999a, 0xbfaba5e353f7cee0, 0xbfa76c8b43958107,
    0xbfbaf9db22d0e561, 0xbfa34385ecd611f0, 0x3fc0f255a5667daa, 0x3fd999999999999a,
    0x3fc8ce262dc6c195, 0x3fdccccccccccccd, 0xbfacdb5d11fa1560, 0xbfa5a56ed1ce6495,
    0xbfb9ed57275dfaff, 0xbfa188d8e5d88c80, 0x3fc06396e0420a3b, 0x3fdccccccccccccd,
    0x3fc6be8ed10bdc91, 0x3fe0000000000000, 0xbfae147ae147ae20, 0xbfa4bc6a7ef9db24,
    0xbfb851eb851eb853, 0xbfa1d69a01078420, 0x3fbfb279b1bec118, 0x3fe0000000000000,
    0x3fc4b26842ddf610,
];

#[rustfmt::skip]
const FIG7_BITS: [u64; 25] = [
    0x3fc999999999999a, 0x3fd55e94e9db9893, 0x3feff86f23723068, 0x3fd9681c5166a033,
    0x3ff0000000000000, 0x3fd999999999999a, 0x3fd2a0d870deef5d, 0x3fefe73cb7d1f2d3,
    0x3fd78d8f91ff3030, 0x3feffef2351fa1ed, 0x3fe3333333333333, 0x3fcbb64d6fc5e1f1,
    0x3fefb567551b07bb, 0x3fd38b40dd8d1f11, 0x3feff38c9b2d9517, 0x3fe999999999999a,
    0x3fc4d940bc5ecf7e, 0x3fef7d30ec2f2128, 0x3fd1366ca7fadd61, 0x3fefe4b8b454e005,
    0x3ff0000000000000, 0x3fbaeb85900cdeb8, 0x3fef1c85bda8b75e, 0x3fc91a37fcd2f137,
    0x3fefac59302f4eb8,
];

const TABLE2_TEXT: &str = r#"== Table II — DCA vs Multinomial FA*IR on districts [16, 17, 18, 19] (526 students, k = 5%) ==
Setting      low_income  ell     special_ed  Norm 
--------------------------------------------------
Baseline     -0.243      -0.082  -0.142      0.293
DCA          +0.026      -0.043  +0.012      0.052
Mult. FA*IR  -0.243      -0.082  -0.142      0.293
FA*IR protected subgroups: low_income=1,ell=0,special_ed=0 | low_income=1,ell=0,special_ed=1 | low_income=1,ell=1,special_ed=0
"#;

#[rustfmt::skip]
const TABLE2_BITS: [u64; 17] = [
    0x3fa999999999999a, 0x4020000000000000, 0x4020000000000000, 0x4022000000000000,
    0x4018000000000000, 0xbfcf25f644230ab4, 0xbfb4ed8175c78b32, 0xbfc231de01a5b32d,
    0x3fd2c7b08342e118, 0x3f9a8188f298e580, 0xbfa629c7d7dddb50, 0x3f87f5d120b87e70,
    0x3faa8251ee5fc41b, 0xbfcf25f644230ab4, 0xbfb4ed8175c78b32, 0xbfc231de01a5b32d,
    0x3fd2c7b08342e118,
];

const EXPOSURE_TEXT: &str = r#"== Section VI-C4 — exposure / demographic disparity (DDP) ==
Setting               DDP    
-----------------------------
Baseline              0.02100
DCA (log-discounted)  0.00480
Improvement factor: 4.4x
"#;

#[rustfmt::skip]
const EXPOSURE_BITS: [u64; 6] = [
    0x3f95822f935e6ed8, 0x3f73ab826cdc2990, 0x4021000000000000, 0x401c000000000000,
    0x4023000000000000, 0x401c000000000000,
];
