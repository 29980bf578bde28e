//! Ablation benches for the platform design choices the evaluation calls
//! out: Kata 9p vs virtio-fs, gVisor ptrace vs KVM, huge pages on/off, and
//! the host page-cache drop pitfall.

use criterion::{criterion_group, criterion_main, Criterion};
use platforms::PlatformId;
use simcore::SimRng;
use workloads::{FioBenchmark, TinymembenchBenchmark};

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    group.bench_function("kata_9p_vs_virtiofs", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(1);
            let bench = FioBenchmark {
                runs: 2,
                guest_memory_bytes: 2 << 30,
                drop_host_cache: true,
            };
            let nine_p = bench.run_randread_latency(&PlatformId::Kata.build(), &mut rng);
            let virtio_fs = bench.run_randread_latency(&PlatformId::KataVirtioFs.build(), &mut rng);
            (nine_p, virtio_fs)
        })
    });

    group.bench_function("gvisor_ptrace_vs_kvm", |b| {
        b.iter(|| {
            let class = oskern::syscall::SyscallClass::FileRead;
            let ptrace = PlatformId::GvisorPtrace
                .build()
                .syscalls()
                .dispatch_cost(class);
            let kvm = PlatformId::GvisorKvm
                .build()
                .syscalls()
                .dispatch_cost(class);
            (ptrace, kvm)
        })
    });

    group.bench_function("huge_pages_on_off", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(2);
            let p = PlatformId::Native.build();
            let small = TinymembenchBenchmark::new(2).run_latency(&p, &mut rng);
            let huge = TinymembenchBenchmark::new(2)
                .with_huge_pages()
                .run_latency(&p, &mut rng);
            (
                small.last().unwrap().latency_ns.mean(),
                huge.last().unwrap().latency_ns.mean(),
            )
        })
    });

    group.bench_function("host_cache_drop_pitfall", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(3);
            let bench = FioBenchmark {
                runs: 2,
                guest_memory_bytes: 2 << 30,
                drop_host_cache: false,
            };
            bench.run_throughput(&PlatformId::Kata.build(), &mut rng)
        })
    });

    group.finish();
}

criterion_group!(ablations, benches);
criterion_main!(ablations);
