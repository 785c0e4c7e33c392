//! Ablation / substrate throughput: the DSP blocks every experiment rests
//! on, plus the square-wave-vs-cosine subcarrier ablation (DESIGN.md).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_core::tag::{Tag, TagConfig};
use fmbs_dsp::complex::Complex;
use fmbs_dsp::corr::find_lag;
use fmbs_dsp::fft::Fft;
use fmbs_dsp::fir::{DecimatingFir, FirDesign};
use fmbs_dsp::goertzel::{goertzel_power, GoertzelBank};
use fmbs_dsp::resample::Upsampler;
use fmbs_dsp::windows::Window;

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
    // The FDM receiver's 16-tone bank over one 200 sym/s window.
    let window = 240;
    g.throughput(Throughput::Elements(window as u64));
    g.bench_function("goertzel_bank_16tone", |b| {
        let freqs: Vec<f64> = (1..=16).map(|k| 800.0 * k as f64).collect();
        let bank = GoertzelBank::new(48_000.0, &freqs);
        let sig: Vec<f64> = (0..window).map(|i| (i as f64 * 0.7).sin()).collect();
        b.iter(|| std::hint::black_box(bank.powers(&sig)))
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
    // The cooperative decoder's x10 upsampler over 2 s of 48 kHz audio.
    let n_up = 96_000;
    g.throughput(Throughput::Elements(n_up as u64));
    g.bench_function("upsample_x10_96k", |b| {
        let audio: Vec<f64> = (0..n_up).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut up = Upsampler::new(10, 8);
        b.iter(|| std::hint::black_box(up.process(&audio)))
    });
    // The physical tier's channel filter: 127 taps over 0.75 s of IQ at
    // 2.56 MHz, decimated by 10 to the MPX rate, fed as the back end
    // feeds it — 10 ms blocks of 25,600 samples.
    let n_iq = 1_920_000;
    g.throughput(Throughput::Elements(n_iq as u64));
    g.bench_function("channel_fir_127tap_decim10_1m92", |b| {
        let iq: Vec<Complex> = (0..n_iq)
            .map(|i| Complex::from_angle(i as f64 * 0.37).scale(0.8))
            .collect();
        let design = FirDesign {
            taps: 127,
            window: Window::Blackman,
        }
        .lowpass(2_560_000.0, 130_000.0);
        let mut out = Vec::with_capacity(n_iq / 10);
        b.iter(|| {
            let mut fir = DecimatingFir::new(design.taps().to_vec(), 10);
            out.clear();
            for block in iq.chunks(25_600) {
                fir.push(block, &mut out);
            }
            std::hint::black_box(out.len())
        })
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
