//! Pins the draws of [`SeededRng`] to literals.
//!
//! Every seeded number of the reproduction (weight init, gating noise, the
//! Dirichlet split, ε-greedy exploration, SPSA perturbations) comes from
//! this one stream, so the stream *is* the determinism contract. The
//! literals below were recorded while the generator still lived in
//! `vendor/rand`; a change to where the generator lives, or to how a
//! `SeededRng` method turns `u64`s into values, keeps them or moves every
//! golden trace in the workspace.
//!
//! Each row is one generator (a seed, then a chain of `derive` streams) and
//! the values one pass of [`trace`] draws from it, in order — so a method
//! that starts consuming a different number of `u64`s fails here too.

use flux_tensor::SeededRng;

/// One pass over every sampling method: floats as their bit patterns,
/// integers as themselves.
fn trace(mut rng: SeededRng) -> Vec<u64> {
    let mut out = Vec::new();
    for _ in 0..3 {
        out.push(rng.uniform().to_bits() as u64);
    }
    for _ in 0..3 {
        out.push(rng.normal().to_bits() as u64);
    }
    for n in [1usize, 7, 1000, usize::MAX] {
        out.push(rng.below(n) as u64);
    }
    for (lo, hi) in [(3usize, 17usize), (0, 2), (1 << 40, 1 << 41)] {
        out.push(rng.range(lo, hi) as u64);
    }
    rng.skip_normals(5);
    out.push(rng.uniform().to_bits() as u64);
    let mut items: Vec<u64> = (0..8).collect();
    rng.shuffle(&mut items);
    out.extend(items);
    for alpha in [0.1f32, 2.0] {
        out.extend(rng.dirichlet(alpha, 3).iter().map(|x| x.to_bits() as u64));
    }
    out.push(rng.uniform().to_bits() as u64);
    out
}

/// `(seed, derive chain, draws)`, recorded at the parent commit. One line per
/// step of [`trace`].
#[rustfmt::skip]
const PINS: [(u64, &[u64], [u64; 29]); 9] = [
    (0x0, &[], [
        0x3f6220a8, 0x3edcf13c, 0x3cd88ba0, // uniform
        0x3e43676f, 0x3f301dcc, 0x3c9fcbea, // normal
        0x0, 0x5, 0x2d6, 0x8621a03fe0bbdb7b, // below
        0x4, 0x1, 0x197971d80ab, // range
        0x3ed3705c, // skip_normals, uniform
        0x2, 0x3, 0x7, 0x5, 0x6, 0x4, 0x1, 0x0, // shuffle
        0x3f7ff7eb, 0x39014570, 0x2847a308, 0x3d1fdb1c, 0x3ed6d52e, 0x3f0a97b6, // dirichlet 0.1, 2.0
        0x3f1b196b, // uniform
    ]),
    (0x0, &[3], [
        0x3e9c4276, 0x3f23e690, 0x3f0e6119, // uniform
        0x3e96593d, 0x3c48e86e, 0x3e908563, // normal
        0x0, 0x6, 0x3d3, 0xec4ccdb6c760b234, // below
        0xf, 0x1, 0x18a5e505ee1, // range
        0x3e8332da, // skip_normals, uniform
        0x7, 0x3, 0x1, 0x4, 0x0, 0x6, 0x2, 0x5, // shuffle
        0x3ea398eb, 0x3e5db5a0, 0x3eed8c46, 0x3e0fd664, 0x3eb3045d, 0x3f028838, // dirichlet 0.1, 2.0
        0x3b519400, // uniform
    ]),
    (0x0, &[3, u64::MAX], [
        0x3d8d7090, 0x3e5c226c, 0x3ef3547e, // uniform
        0xbd6dfeb1, 0xbff078ea, 0x3f7b78eb, // normal
        0x0, 0x1, 0xde, 0x589ab86875e2d35c, // below
        0xb, 0x1, 0x1eefd6d6c6e, // range
        0x3f1cbcb4, // skip_normals, uniform
        0x5, 0x4, 0x2, 0x0, 0x3, 0x7, 0x1, 0x6, // shuffle
        0x3b4c70b2, 0x3f7065cb, 0x3d6cdc52, 0x3ec00cfa, 0x3ee7a942, 0x3e309388, // dirichlet 0.1, 2.0
        0x3f24c6c5, // uniform
    ]),
    (0x2a, &[], [
        0x3f3dd732, 0x3e23bf8c, 0x3e8ea4ce, // uniform
        0x3fb5a286, 0x3dd6b64f, 0xbeb6d327, // normal
        0x0, 0x5, 0x286, 0x836ded897f3e46e6, // below
        0xe, 0x0, 0x1c54d7c33f2, // range
        0x3f3df25b, // skip_normals, uniform
        0x4, 0x0, 0x5, 0x2, 0x6, 0x3, 0x1, 0x7, // shuffle
        0x3f7d34a1, 0x3c322dcc, 0x3829fe2f, 0x3f25e9f1, 0x3e6768e4, 0x3e00ef59, // dirichlet 0.1, 2.0
        0x3f528f82, // uniform
    ]),
    (0x2a, &[3], [
        0x3e4c1348, 0x3ef5dae6, 0x3d85b540, // uniform
        0xbf107f90, 0xbf198740, 0x3f8c6f54, // normal
        0x0, 0x5, 0x38b, 0x5e57c6c86b56823c, // below
        0x8, 0x1, 0x10082f62fec, // range
        0x3f2b2944, // skip_normals, uniform
        0x1, 0x0, 0x3, 0x6, 0x4, 0x7, 0x2, 0x5, // shuffle
        0x319f7cc2, 0x3f7bdc74, 0x3c847172, 0x3ed6924d, 0x3ea979bb, 0x3e7fe7f3, // dirichlet 0.1, 2.0
        0x3f5a0150, // uniform
    ]),
    (0x2a, &[3, u64::MAX], [
        0x3f4f166d, 0x3f03d0f5, 0x3d28ec40, // uniform
        0xbfc54d78, 0xbe5c81b6, 0x3f316e88, // normal
        0x0, 0x6, 0x207, 0x81ebaf587ddad868, // below
        0x10, 0x1, 0x17de86761e2, // range
        0x3eb89892, // skip_normals, uniform
        0x0, 0x3, 0x7, 0x5, 0x2, 0x6, 0x1, 0x4, // shuffle
        0x3234a36d, 0x3dbe9305, 0x3f682da0, 0x3e3632c6, 0x3f206ad8, 0x3e4821dc, // dirichlet 0.1, 2.0
        0x3d1f37a0, // uniform
    ]),
    (0xdeadbeef0badf00d, &[], [
        0x3f464a69, 0x3d8501e0, 0x3ee3d6a8, // uniform
        0x3f23220c, 0x3ef9d135, 0xbebe1abf, // normal
        0x0, 0x4, 0x234, 0xd6e644e317ecf308, // below
        0x7, 0x0, 0x188cd5ac07a, // range
        0x3f2ccc68, // skip_normals, uniform
        0x0, 0x1, 0x4, 0x6, 0x3, 0x7, 0x5, 0x2, // shuffle
        0x3f7e47a1, 0x3bc86f35, 0x3a1e03a3, 0x3ee606d5, 0x3d856593, 0x3ef89fc6, // dirichlet 0.1, 2.0
        0x3e4152a8, // uniform
    ]),
    (0xdeadbeef0badf00d, &[3], [
        0x3f5ec64c, 0x3f3312c2, 0x3f31a27a, // uniform
        0x3ffdb732, 0x3f92b14c, 0xbf627c37, // normal
        0x0, 0x4, 0x173, 0xa946170d2393fe88, // below
        0xa, 0x0, 0x107fef3e496, // range
        0x3f05f90a, // skip_normals, uniform
        0x7, 0x3, 0x4, 0x5, 0x1, 0x2, 0x0, 0x6, // shuffle
        0x3bd79828, 0x3cdc0203, 0x3f7770bf, 0x3e08f670, 0x3e27f173, 0x3f33c607, // dirichlet 0.1, 2.0
        0x3f60ad83, // uniform
    ]),
    (0xdeadbeef0badf00d, &[3, u64::MAX], [
        0x3f03af60, 0x3f13850d, 0x3f1a98b8, // uniform
        0xbf5bef8e, 0x3f2be010, 0x3e86cf3c, // normal
        0x0, 0x4, 0x146, 0x795fa79ce4c9841f, // below
        0x4, 0x0, 0x1995a3bb8ad, // range
        0x3f000265, // skip_normals, uniform
        0x7, 0x6, 0x4, 0x0, 0x1, 0x2, 0x3, 0x5, // shuffle
        0x31540a23, 0x3da075ab, 0x3f6bf14a, 0x3df5fb1e, 0x3f16a87e, 0x3e95303c, // dirichlet 0.1, 2.0
        0x3f21e57e, // uniform
    ]),
];

#[test]
fn every_sampling_method_draws_the_recorded_values() {
    for (seed, chain, want) in PINS {
        let rng = chain
            .iter()
            .fold(SeededRng::new(seed), |rng, &stream| rng.derive(stream));
        assert_eq!(trace(rng), want, "seed {seed:#x}, derive chain {chain:?}");
    }
}
