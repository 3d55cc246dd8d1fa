//! Space accounting.
//!
//! Every structure in this repository implements [`SpaceUsage`] so the
//! benchmark harness can report measured bits/symbol next to the paper's
//! entropy bounds (the `index_bytes_per_user_byte` and
//! `text.fm_bits_per_symbol` rows of `benchmark/README.md`).

/// Reports the number of heap bytes owned by a value (excluding the
/// shallow size of the value itself, which lives wherever its owner put it).
pub trait SpaceUsage {
    /// Heap bytes owned (recursively) by `self`.
    fn heap_bytes(&self) -> usize;

    /// Convenience: total bits including the shallow struct size.
    fn total_bits(&self) -> usize
    where
        Self: Sized,
    {
        (self.heap_bytes() + std::mem::size_of::<Self>()) * 8
    }
}

impl<T: Copy> SpaceUsage for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Copy> SpaceUsage for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl SpaceUsage for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T: SpaceUsage> SpaceUsage for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, |v| v.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_heap_bytes() {
        let v: Vec<u64> = Vec::with_capacity(10);
        assert_eq!(v.heap_bytes(), 80);
        let s = String::from("hello");
        assert!(s.heap_bytes() >= 5);
    }
}
