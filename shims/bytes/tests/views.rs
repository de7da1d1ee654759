//! A seeded model of the view arithmetic: random chains of `slice`,
//! `slice_ref` and `clone` over views of all three origins — a
//! `&'static` slice, a taken `Vec<u8>`, and `BytesMut::pack_view` on a
//! writer that rolls to fresh chunks while its earlier views live. Each
//! view is checked against the same range of a `Vec<u8>` model: the same
//! bytes, at the parent's address plus the offset (no copy), owned or
//! static as its origin and the chain say. Empty ranges are drawn on
//! purpose. Every view is read again once the writers are gone.

// The workspace's shim `rand`, compiled in by path: `bytes` is a leaf
// crate whose manifest names no dev-dependency. Its own unit tests come
// along and run here too.
#[allow(dead_code)]
#[path = "../../rand/src/lib.rs"]
mod rand;

use bytes::{Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A view and what it must read: `model[lo..hi]` of its root's bytes.
struct Modeled<'m> {
    view: Bytes,
    model: &'m [u8],
    lo: usize,
    hi: usize,
    owned: bool,
}

impl Modeled<'_> {
    fn check(&self, what: &str) {
        let want = &self.model[self.lo..self.hi];
        assert_eq!(&self.view[..], want, "{what}: bytes");
        assert_eq!(self.view.len(), want.len(), "{what}: len");
        assert_eq!(self.view.is_empty(), want.is_empty(), "{what}: is_empty");
        assert_eq!(self.view.is_static(), !self.owned, "{what}: owner");
        assert_eq!(self.view, Bytes::copy_from_slice(want), "{what}: eq");
    }
}

/// A random sub-range `a..b` of `0..len`, empty about one time in four.
fn range(rng: &mut StdRng, len: usize) -> (usize, usize) {
    let a = rng.gen_range(0..=len);
    let b = if rng.gen_bool(0.25) {
        a
    } else {
        rng.gen_range(a..=len)
    };
    (a, b)
}

/// One step of a chain from `v`: a slice in one of the five range
/// shapes, a `slice_ref` of a sub-slice, or a clone.
fn step<'m>(rng: &mut StdRng, v: &Modeled<'m>) -> Modeled<'m> {
    let len = v.hi - v.lo;
    let (a, b) = range(rng, len);
    let (view, a, b, owned) = match rng.gen_range(0..7u8) {
        0 => (v.view.slice(a..b), a, b, v.owned),
        1 => (v.view.slice(a..), a, len, v.owned),
        2 => (v.view.slice(..b), 0, b, v.owned),
        3 => (v.view.slice(..), 0, len, v.owned),
        4 if b > a => (v.view.slice(a..=b - 1), a, b, v.owned),
        5 => {
            // An empty subset is the static empty view, whatever its owner.
            let view = v.view.slice_ref(&v.view[a..b]);
            (view, a, b, v.owned && b > a)
        }
        _ => (v.view.clone(), 0, len, v.owned),
    };
    if b > a {
        assert_eq!(
            view.as_ptr() as usize,
            v.view.as_ptr() as usize + a,
            "a sub-view points into its parent, uncopied"
        );
    }
    Modeled {
        view,
        model: v.model,
        lo: v.lo + a,
        hi: v.lo + b,
        owned,
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect()
}

#[test]
fn slice_chains_read_what_the_vec_model_reads() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Values a writer packs, 0..=300 bytes each (zero included), into
        // 1 KiB chunks: it rolls every few values.
        let packed: Vec<Vec<u8>> = (0..48)
            .map(|_| {
                let len = rng.gen_range(0..=300usize);
                random_bytes(&mut rng, len)
            })
            .collect();
        let statics: Vec<&'static [u8]> = (0..8)
            .map(|_| {
                let len = rng.gen_range(0..=200usize);
                &*Box::leak(random_bytes(&mut rng, len).into_boxed_slice())
            })
            .collect();
        let vecs: Vec<Vec<u8>> = (0..8)
            .map(|_| {
                let len = rng.gen_range(0..=200usize);
                random_bytes(&mut rng, len)
            })
            .collect();

        let mut roots = Vec::new();
        for &s in &statics {
            let view = Bytes::from_static(s);
            roots.push(Modeled {
                view,
                model: s,
                lo: 0,
                hi: s.len(),
                owned: false,
            });
        }
        for v in &vecs {
            roots.push(Modeled {
                view: Bytes::from(v.clone()),
                model: v,
                lo: 0,
                hi: v.len(),
                owned: true,
            });
        }
        let mut writer = BytesMut::with_capacity(1024);
        let mut rolls = 0;
        for v in &packed {
            rolls += usize::from(writer.capacity() < v.len());
            let view = writer.pack_view(v);
            roots.push(Modeled {
                view,
                model: v,
                lo: 0,
                hi: v.len(),
                owned: !v.is_empty(),
            });
        }
        drop(writer);
        assert!(rolls >= 3, "seed {seed}: the writer rolled {rolls} times");

        let mut all = Vec::new();
        for root in roots {
            root.check("root");
            let mut tip = root;
            for depth in 0..rng.gen_range(1..=8usize) {
                let next = step(&mut rng, &tip);
                next.check(&format!("seed {seed}, depth {depth}"));
                all.push(tip);
                tip = next;
            }
            all.push(tip);
        }
        // Every view, its writer gone, in a random drop order.
        while !all.is_empty() {
            let v = all.swap_remove(rng.gen_range(0..all.len()));
            v.check(&format!("seed {seed}, after the writer"));
        }
    }
}
