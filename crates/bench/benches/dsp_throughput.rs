//! Ablation / substrate throughput: the DSP blocks every experiment rests
//! on, plus the square-wave-vs-cosine subcarrier ablation (DESIGN.md).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_core::tag::{Tag, TagConfig};
use fmbs_dsp::complex::Complex;
use fmbs_dsp::corr::find_lag;
use fmbs_dsp::fft::Fft;
use fmbs_dsp::fir::FirDesign;
use fmbs_dsp::goertzel::goertzel_power;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("dsp_throughput");
    let n = 1 << 14;
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("fft_16k", |b| {
        let fft = Fft::new(n);
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(i as f64 * 0.1))
            .collect();
        b.iter(|| {
            fft.forward(&mut buf);
            fft.inverse(&mut buf);
        })
    });
    g.bench_function("fir_127tap_16k", |b| {
        let mut fir = FirDesign::default().lowpass(48_000.0, 4_000.0);
        let sig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        b.iter(|| std::hint::black_box(fir.process(&sig)))
    });
    g.bench_function("goertzel_16k", |b| {
        let sig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        b.iter(|| std::hint::black_box(goertzel_power(&sig, 48_000.0, 8_000.0)))
    });
    // Ablation: square-wave switch vs ideal cosine subcarrier.
    let incident = vec![Complex::ONE; n];
    let baseband = vec![0.3; n];
    g.bench_function("tag_square_switch", |b| {
        b.iter(|| {
            let mut tag = Tag::new(TagConfig::paper_default(2_560_000.0));
            std::hint::black_box(tag.backscatter(&incident, &baseband))
        })
    });
    g.bench_function("tag_cosine_ablation", |b| {
        b.iter(|| {
            let mut tag = Tag::new(TagConfig::paper_default(2_560_000.0));
            std::hint::black_box(tag.backscatter_cosine(&incident, &baseband))
        })
    });
    // The cooperative decoder's alignment search: 1 s of ×10-upsampled
    // audio at 48 kHz on each phone, lags within ±50 ms.
    let (len, max_lag) = (480_000, 24_000);
    g.throughput(Throughput::Elements(len as u64));
    g.bench_function("xcorr_coop", |b| {
        let a: Vec<f64> = (0..len)
            .map(|i| (i as f64 * 0.013).sin() * (i as f64 * 0.000_71).cos())
            .collect();
        let delayed: Vec<f64> = (0..len).map(|i| a[(i + len - 311) % len]).collect();
        b.iter(|| std::hint::black_box(find_lag(&a, &delayed, max_lag)))
    });
    // Planning the coop transform size once the shared twiddle table has
    // grown to it: the bit-reversal table only.
    let n_plan = 1 << 19;
    g.throughput(Throughput::Elements(n_plan as u64));
    g.bench_function("fft_plan_512k", |b| {
        b.iter(|| std::hint::black_box(Fft::new(n_plan)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
