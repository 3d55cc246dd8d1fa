//! Property-based tests: every succinct structure against a naive model.

use dyndex_succinct::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_select_matches_model(bits in proptest::collection::vec(any::<bool>(), 0..2000)) {
        let rs = RankSelect::new(BitVec::from_bits(bits.iter().copied()));
        let mut ones = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(rs.rank1(i), ones);
            prop_assert_eq!(rs.get(i), b);
            if b { ones += 1; }
        }
        prop_assert_eq!(rs.rank1(bits.len()), ones);
        let one_positions: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
        for (k, &p) in one_positions.iter().enumerate() {
            prop_assert_eq!(rs.select1(k), Some(p));
        }
        prop_assert_eq!(rs.select1(one_positions.len()), None);
    }

    #[test]
    fn elias_fano_matches_model(
        mut values in proptest::collection::vec(0u64..100_000, 0..500),
        probe in 0u64..100_001,
    ) {
        values.sort_unstable();
        let ef = EliasFano::new(&values, 100_001);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(ef.get(i), v);
        }
        let want_rank = values.iter().filter(|&&v| v < probe).count();
        prop_assert_eq!(ef.rank(probe), want_rank);
        let want_pred = values.iter().rev().find(|&&v| v <= probe).copied();
        prop_assert_eq!(ef.predecessor(probe).map(|p| p.1), want_pred);
    }

    #[test]
    fn int_vec_roundtrip(width in 1usize..=64, values in proptest::collection::vec(any::<u64>(), 0..300)) {
        let mask = bits::low_mask(width);
        let masked: Vec<u64> = values.iter().map(|&v| v & mask).collect();
        let mut iv = IntVec::new(width);
        for &v in &masked { iv.push(v); }
        for (i, &v) in masked.iter().enumerate() {
            prop_assert_eq!(iv.get(i), v);
        }
    }

    #[test]
    fn wavelet_matrix_matches_model(
        seq in proptest::collection::vec(0u32..50, 0..600),
        sym in 0u32..50,
        at in 0usize..600,
    ) {
        let wm = WaveletMatrix::new(&seq, 50);
        let i = at.min(seq.len());
        prop_assert_eq!(wm.rank(sym, i), seq[..i].iter().filter(|&&s| s == sym).count());
        prop_assert_eq!(wm.rank_lt(sym, i), seq[..i].iter().filter(|&&s| s < sym).count());
        if !seq.is_empty() {
            let j = at % seq.len();
            prop_assert_eq!(wm.access(j), seq[j]);
        }
        let occ: Vec<usize> = (0..seq.len()).filter(|&j| seq[j] == sym).collect();
        for (k, &p) in occ.iter().enumerate() {
            prop_assert_eq!(wm.select(sym, k), Some(p));
        }
    }

    #[test]
    fn huffman_wavelet_agrees_with_matrix(
        seq in proptest::collection::vec(0u32..17, 1..500),
        sym in 0u32..17,
        at in 0usize..500,
    ) {
        let wm = WaveletMatrix::new(&seq, 17);
        let hw = HuffmanWavelet::new(&seq, 17);
        let i = at.min(seq.len());
        prop_assert_eq!(hw.rank(sym, i), wm.rank(sym, i));
        let j = at % seq.len();
        prop_assert_eq!(hw.access(j), wm.access(j));
        for k in 0..wm.rank(sym, seq.len()) {
            prop_assert_eq!(hw.select(sym, k), wm.select(sym, k));
        }
    }

    #[test]
    fn access_rank_is_access_then_rank(
        // Every case also checks the empty sequence and a one-symbol one
        // (the degenerate Huffman tree).
        sigma in 1u32..20,
        raw in proptest::collection::vec(any::<u32>(), 0..400),
    ) {
        let seq: Vec<u32> = raw.iter().map(|&r| r % sigma).collect();
        fn check<S: Sequence>(seq: &[u32], sigma: u32) -> Result<(), TestCaseError> {
            let s = S::build(seq, sigma);
            for (i, &sym) in seq.iter().enumerate() {
                prop_assert_eq!(s.access_rank(i), (s.access(i), s.rank(s.access(i), i)));
                prop_assert_eq!(s.access_rank(i).0, sym);
            }
            Ok(())
        }
        for seq in [&seq[..], &[], &[sigma - 1; 7]] {
            check::<WaveletMatrix>(seq, sigma)?;
            check::<HuffmanWavelet>(seq, sigma)?;
        }
    }

    #[test]
    fn one_bit_reporter_matches_model(
        len in 1usize..3000,
        zeros in proptest::collection::vec(any::<proptest::sample::Index>(), 0..200),
        range in any::<(proptest::sample::Index, proptest::sample::Index)>(),
    ) {
        let mut v = OneBitReporter::new_all_ones(len);
        let mut model = vec![true; len];
        for z in &zeros {
            let i = z.index(len);
            v.zero(i);
            model[i] = false;
        }
        prop_assert_eq!(v.count_ones(), model.iter().filter(|&&b| b).count());
        let (a, b) = (range.0.index(len), range.1.index(len));
        let (s, e) = (a.min(b), a.max(b));
        let want: Vec<usize> = (s..=e).filter(|&i| model[i]).collect();
        prop_assert_eq!(v.report_vec(s, e), want);
    }

    #[test]
    fn flip_rank_matches_model(
        len in 1usize..3000,
        flips in proptest::collection::vec(any::<(proptest::sample::Index, bool)>(), 0..300),
        probe in any::<proptest::sample::Index>(),
    ) {
        let mut fr = FlipRank::new(len, true);
        let mut model = vec![true; len];
        for (ix, bit) in &flips {
            let i = ix.index(len);
            fr.set(i, *bit);
            model[i] = *bit;
        }
        let i = probe.index(len + 1);
        prop_assert_eq!(fr.rank1(i), model[..i].iter().filter(|&&b| b).count());
    }

    #[test]
    fn dyn_bitvec_random_edit_script(
        ops in proptest::collection::vec(any::<(u8, proptest::sample::Index, bool)>(), 0..400),
    ) {
        let mut dv = DynBitVec::new();
        let mut model: Vec<bool> = Vec::new();
        for (op, ix, bit) in &ops {
            match op % 3 {
                0 => {
                    let pos = ix.index(model.len() + 1);
                    dv.insert(pos, *bit);
                    model.insert(pos, *bit);
                }
                1 if !model.is_empty() => {
                    let pos = ix.index(model.len());
                    prop_assert_eq!(dv.remove(pos), model.remove(pos));
                }
                _ if !model.is_empty() => {
                    let pos = ix.index(model.len());
                    dv.set(pos, *bit);
                    model[pos] = *bit;
                }
                _ => {}
            }
        }
        prop_assert_eq!(dv.len(), model.len());
        let ones = model.iter().filter(|&&b| b).count();
        prop_assert_eq!(dv.count_ones(), ones);
        for i in 0..model.len() {
            prop_assert_eq!(dv.get(i), model[i]);
            prop_assert_eq!(dv.rank1(i), model[..i].iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn dyn_wavelet_random_edit_script(
        ops in proptest::collection::vec(any::<(u8, proptest::sample::Index, u32)>(), 0..300),
    ) {
        const SIGMA: u32 = 23;
        let mut dw = DynWavelet::new(SIGMA);
        let mut model: Vec<u32> = Vec::new();
        for (op, ix, sym) in &ops {
            let sym = sym % SIGMA;
            if op % 3 != 0 || model.is_empty() {
                let pos = ix.index(model.len() + 1);
                dw.insert(pos, sym);
                model.insert(pos, sym);
            } else {
                let pos = ix.index(model.len());
                prop_assert_eq!(dw.remove(pos), model.remove(pos));
            }
        }
        prop_assert_eq!(dw.len(), model.len());
        for (i, &want) in model.iter().enumerate() {
            prop_assert_eq!(dw.access(i), want);
        }
        for sym in 0..SIGMA {
            prop_assert_eq!(dw.rank(sym, model.len()),
                model.iter().filter(|&&s| s == sym).count());
        }
    }
}
