//! The motivation and characterization results (§2–§3): Table 1 and
//! Figures 1–9.

use um_stats::table::{f1, f2, f3, Table};
use umanycore::experiments::motivation;

use crate::{header_text, EnvScale};

/// Table 1: main sources of tail latency and the uManycore solutions.
///
/// Qualitative table, rendered for completeness; every row maps to a
/// mechanism implemented in this repository.
pub(super) fn table1(_: EnvScale) -> String {
    let mut out = header_text("Table 1", "Main sources of tail latency (qualitative).");
    let mut t = Table::with_columns(&["Source", "Reason", "uManycore solution", "module"]);
    t.row(vec![
        "Monolithic cache coherence".into(),
        "remote directory/cache/network accesses and contention".into(),
        "multiple small cache-coherent domains (villages)".into(),
        "um-arch::coherence, umanycore::system".into(),
    ]);
    t.row(vec![
        "Request scheduling".into(),
        "synchronization and queuing of requests".into(),
        "request enqueue/dequeue/scheduling in hardware".into(),
        "um-sched::rq, umanycore::system".into(),
    ]);
    t.row(vec![
        "Context switching".into(),
        "OS invocation and saving & restoring state".into(),
        "hardware-based context switching".into(),
        "um-sched::ctxswitch".into(),
    ]);
    t.row(vec![
        "On-package network".into(),
        "network link/router latency and contention".into(),
        "on-package hierarchical leaf-spine network".into(),
        "um-net::leafspine".into(),
    ]);
    out.push_str(&t.render());
    out
}

/// Figure 1: speedups of four published microarchitectural optimizations
/// on monolithic vs microservice applications.
///
/// Paper anchors: monoliths gain 19% / 14% / 16% / 2%; microservices gain
/// 2% / 1% / ~0% / ~0%.
pub(super) fn fig1(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text(
        "Figure 1",
        "Speedup of D-Prefetcher / Branch Predictor / I-Prefetcher / I-Cache Replace,\n\
         normalized to Baseline (= 1.0); calibrated stall breakdowns, with a\n\
         trace-driven cross-check below.",
    );
    let rows = motivation::fig1_rows();
    let mut t = Table::with_columns(&[
        "optimization",
        "Mono baseline",
        "Mono optimized",
        "Micro baseline",
        "Micro optimized",
    ]);
    for r in &rows {
        t.row(vec![
            r.opt.name().to_string(),
            "1.000".to_string(),
            f3(r.mono_speedup),
            "1.000".to_string(),
            f3(r.micro_speedup),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str("paper: Mono 1.19 / 1.14 / 1.16 / 1.02 ; Micro 1.02 / 1.01 / 1.00 / 1.00\n\n");
    out.push_str("cross-check from trace-driven cache simulation (coarser, ordering only):\n");
    let mut t2 = Table::with_columns(&["optimization", "Mono optimized", "Micro optimized"]);
    for r in motivation::fig1_rows_measured(scale.seed) {
        t2.row(vec![
            r.opt.name().to_string(),
            f3(r.mono_speedup),
            f3(r.micro_speedup),
        ]);
    }
    out.push_str(&t2.render());
    out
}

/// Figure 2: CDF of requests per second (RPS) received by a server, from
/// the synthetic Alibaba-like trace model.
///
/// Paper anchors: median ~500 RPS; >=1000 RPS 20% of the time; >=1500 RPS
/// 5% of the time.
pub(super) fn fig2(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text("Figure 2", "CDF of per-server load (RPS).");
    let cdf = motivation::fig2_cdf(scale.seed, 100_000);
    let mut t = Table::with_columns(&["RPS", "CDF"]);
    for i in 0..=9 {
        let x = 2_000.0 * i as f64 / 9.0;
        t.row(vec![format!("{x:.0}"), f2(cdf.eval(x))]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "median={:.0} p80={:.0} p95={:.0} (paper: ~500 / ~1000 / ~1500)\n",
        cdf.inverse(0.5),
        cdf.inverse(0.8),
        cdf.inverse(0.95)
    ));
    out
}

/// Figure 3: average and tail response time vs the number of queues in a
/// 1024-core manycore, with and without work stealing, at 50K RPS.
///
/// Paper anchors: tail is ~4.1x worse with 1024 queues and ~4.5x worse
/// with 1 queue than with 32 queues; work stealing rescues the many-queue
/// end but adds overhead at the few-queue end; averages move much less.
pub(super) fn fig3(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text(
        "Figure 3",
        "Response time vs queue count, 1024-core ScaleOut, Poisson 50K RPS.",
    );
    let rows = motivation::fig3_rows(scale, 50_000.0);
    let mut t = Table::with_columns(&[
        "queues",
        "avg (us)",
        "tail (us)",
        "avg+steal (us)",
        "tail+steal (us)",
    ]);
    for r in &rows {
        t.row(vec![
            r.queues.to_string(),
            f1(r.avg_us),
            f1(r.tail_us),
            f1(r.avg_steal_us),
            f1(r.tail_steal_us),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    let best = rows
        .iter()
        .min_by(|a, b| a.tail_us.total_cmp(&b.tail_us))
        .expect("rows");
    out.push_str(&format!(
        "best tail at {} queues; 1024-queue tail = {:.1}x best, 1-queue tail = {:.1}x best\n",
        best.queues,
        rows[0].tail_us / best.tail_us,
        rows.last().expect("rows").tail_us / best.tail_us
    ));
    out.push_str("paper: best at 32 queues; 4.1x at 1024 queues, 4.5x at 1 queue\n");
    out
}

/// Figure 4: CDF of CPU utilization per request.
///
/// Paper anchors: median ~14%; 99% of requests below 60%.
pub(super) fn fig4(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text("Figure 4", "CDF of CPU utilization per dynamic request.");
    let cdf = motivation::fig4_cdf(scale.seed, 100_000);
    let mut t = Table::with_columns(&["utilization", "CDF"]);
    for i in 0..=8 {
        let x = 0.7 * i as f64 / 8.0;
        t.row(vec![f2(x), f2(cdf.eval(x))]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "median={:.3} p99={:.3} (paper: ~0.14 / <0.60)\n",
        cdf.inverse(0.5),
        cdf.inverse(0.99)
    ));
    out
}

/// Figure 5: CDF of the number of RPC invocations per request.
///
/// Paper anchors: median ~4.2; ~5% of requests invoke 16 or more RPCs.
pub(super) fn fig5(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text("Figure 5", "CDF of RPC invocations per dynamic request.");
    let cdf = motivation::fig5_cdf(scale.seed, 100_000);
    let mut t = Table::with_columns(&["callees per caller", "CDF"]);
    for x in [0.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0] {
        t.row(vec![format!("{x:.0}"), f2(cdf.eval(x))]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "median={:.1}; fraction >=16 RPCs: {:.3} (paper: ~4.2 / ~0.05)\n",
        cdf.inverse(0.5),
        1.0 - cdf.eval(15.99)
    ));
    out
}

/// Figure 6: impact of context-switch overhead on tail latency at 5K, 10K
/// and 50K RPS on the 1024-core ScaleOut.
///
/// Paper anchors: 128-256 cycles barely impact tail latency; the ~2K-cycle
/// software schedulers degrade it 13-23x at 50K RPS; Linux's ~5K cycles
/// degrade it 26-38x.
pub(super) fn fig6(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text(
        "Figure 6",
        "Tail latency vs context-switch overhead, normalized to CS=0 per load.",
    );
    let loads = [5_000.0, 10_000.0, 50_000.0];
    let rows = motivation::fig6_rows(scale, &loads);
    let mut t = Table::with_columns(&["CS cycles", "5K RPS", "10K RPS", "50K RPS"]);
    for &cs in &motivation::FIG6_CS {
        let cells: Vec<String> = loads
            .iter()
            .map(|&rps| {
                rows.iter()
                    .find(|r| r.cs_cycles == cs && r.rps == rps)
                    .map(|r| f2(r.norm_tail))
                    .expect("row exists")
            })
            .collect();
        t.row(vec![
            cs.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "markers: HW target 128-256 | Shenango 1024 | Shinjuku 1536 | ZygOS 2048 | Linux ~5000\n",
    );
    out.push_str(
        "paper: <=256 cycles ~ flat; 2K cycles 13-23x at 50K; 5-8K cycles 26-38x at 50K\n",
    );
    out
}

/// Figure 7: tail latency with ICN contention on the ScaleOut, mesh vs
/// fat tree, normalized to the same system without contention.
///
/// Paper anchor: at 50K RPS contention inflates the tail 14.7x on the
/// mesh and 7.5x on the fat tree.
pub(super) fn fig7(env: EnvScale) -> String {
    let rows = motivation::fig7_rows(env.scale(), &[1_000.0, 5_000.0, 10_000.0, 50_000.0]);
    let mut out = header_text(
        "Figure 7",
        "Tail latency with ICN contention, normalized to the same system without\ncontention.",
    );
    let mut t = Table::with_columns(&["load", "2D mesh", "fat tree"]);
    for r in &rows {
        t.row(vec![
            format!("{:.0}K-RPS", r.rps / 1000.0),
            f2(r.mesh_norm_tail),
            f2(r.fat_tree_norm_tail),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str("paper at 50K RPS: mesh 14.7x, fat tree 7.5x\n");
    out
}

/// Figure 8: handler-handler and handler-initialization sharing of data
/// and instruction pages and cache lines.
///
/// Paper anchor: 78-99% of a handler's footprint is common.
pub(super) fn fig8(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text(
        "Figure 8",
        "Fraction of one handler's memory footprint common with another handler\n\
         of the same instance, and with the instance's initialization process.",
    );
    let rows = motivation::fig8_rows(scale.seed, 200);
    let mut t = Table::with_columns(&["pair", "d-Page", "d-Line", "i-Page", "i-Line"]);
    for (label, s) in [
        ("Handler-Handler", rows.handler_handler),
        ("Handler-Init", rows.handler_init),
    ] {
        t.row(vec![
            label.to_string(),
            f2(s.d_page),
            f2(s.d_line),
            f2(s.i_page),
            f2(s.i_line),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str("paper: common fractions of 0.78-0.99 across all eight bars\n");
    out
}

/// Figure 9: L1 and L2 data/instruction TLB and cache hit rates for
/// microservice handlers.
///
/// Paper anchor: L1 TLB and cache hit rates above 95%; L2 structures lower
/// because the L1s filter the high-locality accesses.
pub(super) fn fig9(env: EnvScale) -> String {
    let scale = env.scale();
    let mut out = header_text(
        "Figure 9",
        "TLB and cache hit rates, data and instruction sides.",
    );
    let r = motivation::fig9_rows(scale.seed, 400_000);
    let mut t = Table::with_columns(&["structure", "Data", "Instructions"]);
    t.row(vec!["L1 TLB".into(), f3(r.d_l1_tlb), f3(r.i_l1_tlb)]);
    t.row(vec!["L1 Cache".into(), f3(r.d_l1_cache), f3(r.i_l1_cache)]);
    t.row(vec!["L2 TLB".into(), f3(r.d_l2_tlb), f3(r.i_l2_tlb)]);
    t.row(vec!["L2 Cache".into(), f3(r.d_l2_cache), f3(r.i_l2_cache)]);
    out.push_str(&t.render());
    out.push('\n');
    out.push_str("paper: L1 rates > 0.95; L2 rates visibly lower (L1s act as filters)\n");
    out
}
