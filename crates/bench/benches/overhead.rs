//! Measured (wall-clock) tracing overheads — the empirical companion to
//! the modeled Figs. 11 and 13.
//!
//! `baseline` vs `pt_full` vs `rr_record` on the same program and seed is a
//! *real* measurement of observer cost in this implementation: PT appends
//! a few packet bytes per branch, rr clones every event. Unlike the
//! paper's hardware, the two cost about the same here. The repository
//! benchmark's traced fleet run (`perfbench --trace 1`, 64 seeds per
//! program, median of six runs on a 2-vCPU host) measured, over the bare
//! VM:
//!
//! | program | PT | rr | full σ=8 tracker |
//! |---|---|---|---|
//! | pbzip2-1 | +43% | +41% | +109% |
//! | curl-965 | +36% | +46% | +108% |
//! | memcached-127 | +40% | +40% | +77% |
//!
//! PT emits about one packet per 23 retired statements, so in a profile
//! its share is per-event handling, not packet encoding. EXPERIMENTS.md
//! keeps these rows next to the modeled Fig. 13.

// The criterion macros expand to undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gist_baselines::Recorder;
use gist_bugbase::bug_by_name;
use gist_pt::{PtConfig, PtDriver, PtTracer};
use gist_slicing::StaticSlicer;
use gist_tracking::{Planner, TrackerRuntime};
use gist_vm::Vm;
use std::hint::black_box;

fn bench_fig13_measured(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_measured");
    for name in ["pbzip2-1", "curl-965", "memcached-127"] {
        let bug = bug_by_name(name).unwrap();
        group.bench_with_input(BenchmarkId::new("baseline", name), &bug, |b, bug| {
            b.iter(|| {
                let mut vm = Vm::new(&bug.program, bug.vm_config(7));
                black_box(vm.run(&mut []))
            })
        });
        group.bench_with_input(BenchmarkId::new("pt_full", name), &bug, |b, bug| {
            b.iter(|| {
                let mut tracer =
                    PtTracer::new(&bug.program, PtDriver::always_on(), PtConfig::default());
                let mut vm = Vm::new(&bug.program, bug.vm_config(7));
                let r = vm.run(&mut [&mut tracer]);
                tracer.finish();
                black_box((r, tracer.total_bytes()))
            })
        });
        group.bench_with_input(BenchmarkId::new("rr_record", name), &bug, |b, bug| {
            b.iter(|| black_box(Recorder::record(&bug.program, bug.vm_config(7))))
        });
    }
    group.finish();
}

fn bench_fig11_measured(c: &mut Criterion) {
    let bug = bug_by_name("pbzip2-1").unwrap();
    let (_, report) = bug.find_failure(300).unwrap();
    let slicer = StaticSlicer::new(&bug.program);
    let slice = slicer.compute(report.failing_stmt);
    let planner = Planner::new(&bug.program, slicer.ticfg());
    let mut group = c.benchmark_group("fig11_measured");
    for size in [2usize, 4, 8, 16] {
        let patch = planner.plan(slice.prefix(size), 0);
        group.bench_with_input(BenchmarkId::new("tracked", size), &patch, |b, patch| {
            b.iter(|| {
                let mut tracker = TrackerRuntime::new(&bug.program, patch.clone(), 4);
                let mut vm = Vm::new(&bug.program, bug.vm_config(7));
                let r = vm.run(&mut [&mut tracker]);
                black_box((r, tracker.finish().pt_bytes))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig13_measured, bench_fig11_measured);
criterion_main!(benches);
