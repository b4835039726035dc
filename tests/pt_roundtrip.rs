//! Property test: Intel PT round-trips arbitrary programs.
//!
//! For randomly generated MiniC programs (loops, branches, calls, threads,
//! shared memory), fully tracing a run and decoding the packet streams
//! must reproduce each thread's retired-statement sequence exactly. The
//! decoders must also reject, never panic on, outside bytes: arbitrary
//! byte soup and well-formed packet streams naming statements and threads
//! that do not exist.

use bytes::BytesMut;
use gist_ir::builder::ProgramBuilder;
use gist_ir::{Callee, CmpKind, InstrId, Program};
use gist_pt::packet::TNT_CAPACITY;
use gist_pt::{decoder, DecodeCache, Packet, PtConfig, PtDriver, PtTracer};
use gist_vm::event::EventLog;
use gist_vm::{Event, SchedulerKind, Vm, VmConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random but structurally valid program from a seed: a few
/// worker functions with bounded loops and data-dependent branches, plus a
/// main that may spawn them as threads or call them.
fn random_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new("random");
    let g = pb.global("shared", rng.gen_range(0..4));

    let nworkers = rng.gen_range(1..=3u32);
    let mut workers = Vec::new();
    for w in 0..nworkers {
        let name = format!("worker{w}");
        let mut f = pb.function(&name, &["arg"]);
        let arg = f.var("arg");
        let iters = rng.gen_range(1..=4i64);
        let n = f.const_i64("n", iters);
        let head = f.new_block("head");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        f.br(head);
        f.switch_to(head);
        let c = f.cmp("c", CmpKind::Gt, n.into(), 0.into());
        f.condbr(c.into(), body, exit);
        f.switch_to(body);
        // Random body shape: arithmetic, shared loads/stores, inner branch.
        match rng.gen_range(0..3) {
            0 => {
                let v = f.load("v", g.into());
                let v2 = f.add("v2", v.into(), arg.into());
                f.store(g.into(), v2.into());
            }
            1 => {
                let v = f.load("v", g.into());
                let odd = f.bin("odd", gist_ir::BinKind::And, v.into(), 1.into());
                let t = f.new_block("odd_b");
                let e = f.new_block("even_b");
                let join = f.new_block("join_b");
                f.condbr(odd.into(), t, e);
                f.switch_to(t);
                f.store(g.into(), 7.into());
                f.br(join);
                f.switch_to(e);
                f.store(g.into(), 8.into());
                f.br(join);
                f.switch_to(join);
            }
            _ => {
                let x = f.bin("x", gist_ir::BinKind::Mul, arg.into(), 3.into());
                f.print(&[x.into()]);
            }
        }
        let n2 = f.sub("n2", n.into(), 1.into());
        let n_again = f.var("n");
        let _ = n_again;
        f.store(g.into(), n2.into());
        // Re-bind the loop counter.
        let nn = f.var("n");
        let dec = f.sub("dec", nn.into(), 1.into());
        let nvar = f.var("n");
        let _ = nvar;
        // n = dec
        let _ = f.add("n", dec.into(), 0.into());
        f.br(head);
        f.switch_to(exit);
        f.ret(Some(arg.into()));
        workers.push(f.finish());
    }

    let mut m = pb.function("main", &[]);
    let mut tids = Vec::new();
    for (i, &w) in workers.iter().enumerate() {
        if rng.gen_bool(0.5) {
            let t = m
                .spawn(Some(&format!("t{i}")), Callee::Direct(w), (i as i64).into())
                .expect("dst");
            tids.push(t);
        } else {
            m.call_direct(&format!("r{i}"), w, &[(i as i64).into()]);
        }
    }
    for t in tids {
        m.join(t.into());
    }
    let v = m.load("final", g.into());
    m.print(&[v.into()]);
    m.ret(None);
    m.finish();
    pb.finish().expect("random program is valid")
}

fn check_roundtrip(program_seed: u64, sched_seed: u64) {
    let program = random_program(program_seed);
    let cfg = VmConfig {
        scheduler: SchedulerKind::Random {
            seed: sched_seed,
            preempt: 0.5,
        },
        max_steps: 50_000,
        ..VmConfig::default()
    };
    let mut tracer = PtTracer::new(&program, PtDriver::always_on(), PtConfig::default());
    let mut truth = EventLog::default();
    let mut vm = Vm::new(&program, cfg);
    vm.run(&mut [&mut truth, &mut tracer]);
    tracer.finish();
    let decoded = decoder::decode(&program, &tracer.take_traces()).expect("decodes");
    let mut tids: Vec<u32> = truth
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Retired { tid, .. } => Some(*tid),
            _ => None,
        })
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let want: Vec<_> = truth
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Retired { tid: t, iid, .. } if *t == tid => Some(*iid),
                _ => None,
            })
            .collect();
        let got = decoded.thread_stmts(tid);
        assert_eq!(
            got, want,
            "program {program_seed}, sched {sched_seed}, tid {tid}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pt_roundtrips_random_programs(program_seed in 0u64..5_000, sched_seed in 0u64..1_000) {
        check_roundtrip(program_seed, sched_seed);
    }
}

#[test]
fn pt_roundtrips_known_seeds() {
    for s in 0..30 {
        check_roundtrip(s, s.wrapping_mul(7));
    }
}

/// Strategy producing any single packet, including the markers (PSB, OVF)
/// a real stream interleaves with payload packets.
fn arb_packet() -> impl Strategy<Value = Packet> {
    let ip = || (0u32..100_000).prop_map(InstrId);
    prop_oneof![
        Just(Packet::Psb),
        (0u32..64).prop_map(|tid| Packet::Pip { tid }),
        ip().prop_map(|ip| Packet::Pge { ip }),
        ip().prop_map(|ip| Packet::Pgd { ip }),
        proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 1..TNT_CAPACITY + 1)
            .prop_map(|bits| Packet::Tnt { bits }),
        ip().prop_map(|ip| Packet::Tip { ip }),
        ip().prop_map(|ip| Packet::Fup { ip }),
        Just(Packet::Ovf),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte-level property: ANY packet sequence — arbitrary ordering,
    /// PSB resync points and OVF markers anywhere in the stream —
    /// encodes to exactly the modeled sizes and decodes back verbatim.
    #[test]
    fn packet_streams_roundtrip(packets in proptest::collection::vec(arb_packet(), 0..200)) {
        let mut buf = BytesMut::new();
        let mut modeled = 0usize;
        for p in &packets {
            p.encode(&mut buf);
            modeled += p.encoded_len();
        }
        prop_assert_eq!(buf.len(), modeled, "encoded_len must match encoding");
        let decoded = Packet::decode_all(&buf);
        prop_assert_eq!(decoded.as_ref(), Ok(&packets));
    }
}

/// OVF semantics end to end: with a buffer far too small for the trace,
/// the tracer stops on full with a single OVF marker, and the decoded
/// per-thread statement sequences are exact prefixes of the true ones.
#[test]
fn overflowed_trace_decodes_to_prefixes() {
    for seed in 0..10u64 {
        let program = random_program(seed);
        let cfg = VmConfig {
            scheduler: SchedulerKind::Random {
                seed: seed.wrapping_mul(13).wrapping_add(1),
                preempt: 0.5,
            },
            max_steps: 50_000,
            ..VmConfig::default()
        };
        let mut tracer = PtTracer::new(
            &program,
            PtDriver::always_on(),
            PtConfig {
                num_cores: 1,
                buffer_capacity: 96,
            },
        );
        let mut truth = EventLog::default();
        let mut vm = Vm::new(&program, cfg);
        vm.run(&mut [&mut truth, &mut tracer]);
        tracer.finish();
        let traces = tracer.take_traces();
        let per_stream_ovf: Vec<usize> = traces
            .iter()
            .map(|t| {
                Packet::decode_all(t)
                    .expect("stream decodes")
                    .iter()
                    .filter(|p| matches!(p, Packet::Ovf))
                    .count()
            })
            .collect();
        for (core, &n) in per_stream_ovf.iter().enumerate() {
            assert!(
                n <= 1,
                "seed {seed}, core {core}: stop-on-full emits at most one OVF per stream"
            );
        }
        let decoded = decoder::decode(&program, &traces).expect("decodes");
        let mut tids: Vec<u32> = truth
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Retired { tid, .. } => Some(*tid),
                _ => None,
            })
            .collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let want: Vec<_> = truth
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Retired { tid: t, iid, .. } if *t == tid => Some(*iid),
                    _ => None,
                })
                .collect();
            let got = decoded.thread_stmts(tid);
            assert!(
                got.len() <= want.len() && got == want[..got.len()],
                "seed {seed}, tid {tid}: decoded sequence must be a prefix \
                 of the true sequence (got {} stmts, want {})",
                got.len(),
                want.len()
            );
        }
        if decoded.overflowed {
            assert!(
                per_stream_ovf.iter().sum::<usize>() >= 1,
                "seed {seed}: decoder reports overflow but no stream carries OVF"
            );
        }
    }
}

/// Feeds `cores` to every decode entry point: the packet parser, a cold
/// decode, and a decode through a fresh and then a warm cache shard. Each
/// must return `Ok` or `Err` without panicking, and the cached results
/// must equal the cold one.
fn decode_every_way(program: &Program, cores: &[Vec<u8>]) {
    for bytes in cores {
        let _ = Packet::decode_all(bytes);
    }
    let cold = decoder::decode(program, cores);
    let cache = DecodeCache::new();
    let mut shard = cache.shard();
    let fresh = decoder::decode_with_shard(program, cores, &mut shard);
    let warm = decoder::decode_with_shard(program, cores, &mut shard);
    assert_eq!(fresh, cold, "cache-filling decode differs from cold decode");
    assert_eq!(warm, cold, "warm-cache decode differs from cold decode");
}

/// Bytes drawn mostly from the packet tags and their common payload bytes,
/// so the parser gets past the first byte far more often than on uniform
/// noise.
fn soup_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        0u8..=255,
        0x80u8..=0xff, // TNT
        Just(0x02),    // PSB
        Just(0x82),
        Just(0x43), // PIP
        Just(0x00),
        Just(0x11), // PGE
        Just(0x01), // PGD
        Just(0x0d), // TIP
        Just(0x1d), // FUP
        Just(0x66), // OVF
    ]
}

/// Any packet, with statement ids and tids from the whole `u32` range as
/// often as from the program's own small range.
fn wild_packet() -> impl Strategy<Value = Packet> {
    let ip = || prop_oneof![0u32..64, 0u32..=u32::MAX].prop_map(InstrId);
    prop_oneof![
        Just(Packet::Psb),
        prop_oneof![0u32..4, 0u32..=u32::MAX].prop_map(|tid| Packet::Pip { tid }),
        ip().prop_map(|ip| Packet::Pge { ip }),
        ip().prop_map(|ip| Packet::Pgd { ip }),
        proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 1..TNT_CAPACITY + 1)
            .prop_map(|bits| Packet::Tnt { bits }),
        ip().prop_map(|ip| Packet::Tip { ip }),
        ip().prop_map(|ip| Packet::Fup { ip }),
        Just(Packet::Ovf),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// Arbitrary bytes on one to four cores.
    #[test]
    fn decoders_never_panic_on_byte_soup(
        program_seed in 0u64..40,
        cores in proptest::collection::vec(proptest::collection::vec(soup_byte(), 0..160), 1..5),
    ) {
        decode_every_way(&random_program(program_seed), &cores);
    }

    /// Well-formed packet streams: a real trace of a random program with
    /// a few packets replaced, inserted or deleted, the new ones naming
    /// statements and threads that may not exist.
    #[test]
    fn decoders_never_panic_on_out_of_range_packets(
        program_seed in 0u64..40,
        sched_seed in 0u64..1_000,
        edits in proptest::collection::vec((0usize..1_000, 0u8..3, wild_packet()), 1..6),
    ) {
        let program = random_program(program_seed);
        let cfg = VmConfig {
            scheduler: SchedulerKind::Random { seed: sched_seed, preempt: 0.5 },
            max_steps: 50_000,
            ..VmConfig::default()
        };
        let mut tracer = PtTracer::new(&program, PtDriver::always_on(), PtConfig::default());
        Vm::new(&program, cfg).run(&mut [&mut tracer]);
        tracer.finish();
        let mut streams: Vec<Vec<Packet>> = tracer
            .take_traces()
            .iter()
            .map(|bytes| Packet::decode_all(bytes).expect("tracer output parses"))
            .collect();
        for (i, (at, op, packet)) in edits.into_iter().enumerate() {
            let n = streams.len();
            let stream = &mut streams[i % n];
            let at = at % (stream.len() + 1);
            match op {
                0 if at < stream.len() => stream[at] = packet,
                1 if at < stream.len() => {
                    stream.remove(at);
                }
                _ => stream.insert(at, packet),
            }
        }
        let cores: Vec<Vec<u8>> = streams
            .iter()
            .map(|packets| {
                let mut buf = BytesMut::new();
                for p in packets {
                    p.encode(&mut buf);
                }
                buf.to_vec()
            })
            .collect();
        decode_every_way(&program, &cores);
    }
}
