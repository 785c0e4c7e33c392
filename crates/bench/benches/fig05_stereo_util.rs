//! Times the Fig. 5 stereo-utilisation measurement: one window per
//! genre alone, and a four-genre pass that shares one music bed per
//! style and one MPX carrier table across its windows.

use criterion::{criterion_group, criterion_main, Criterion};
use fmbs_audio::program::ProgramKind;
use fmbs_survey::stereo_util::stereo_utilisation_samples;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig05_stereo_util");
    g.sample_size(10);
    for kind in [ProgramKind::News, ProgramKind::RockMusic] {
        g.bench_function(
            format!("window_{}", kind.label().replace([' ', ','], "_")),
            |b| b.iter(|| std::hint::black_box(stereo_utilisation_samples(&[kind], 1, 2.0, 5))),
        );
    }
    g.bench_function("four_genres_2_windows", |b| {
        b.iter(|| {
            std::hint::black_box(stereo_utilisation_samples(
                &ProgramKind::BROADCAST_GENRES,
                2,
                2.0,
                5,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
