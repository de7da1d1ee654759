// Fixture: the byte substrate with one attribute dropped — `acquire`,
// which every clone of a view calls, is a cross-crate call again.
// Linted as if it lived at `shims/bytes/src/lib.rs`; must trip exactly
// `inline-substrate`, once. `BytesMut::drop` and `Vec`'s `eq` are not
// on the per-value list and need no attribute.
impl Handle {
    #[inline]
    fn get(&self) -> &Shared {
        self.0
    }

    /// Takes a parked reference, or counts a fresh one.
    fn acquire(self) {
        self.get().refs.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn park(self) {
        self.release(1);
    }
}

impl Parked {
    #[inline]
    fn find(&self, h: Handle) -> Option<usize> {
        self.ways.iter().position(|e| e.handle == Some(h))
    }

    #[inline]
    fn unpark(&mut self, h: Handle) -> bool {
        self.find(h).is_some()
    }

    #[inline]
    fn settle_at(&mut self, i: usize, own: usize) -> bool {
        i == own
    }
}

impl Bytes {
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn is_static(&self) -> bool {
        self.owner.is_none()
    }

    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        self.clone()
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Self {
        Bytes { ..*self }
    }
}

impl Drop for Bytes {
    #[inline]
    fn drop(&mut self) {}
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl BytesMut {
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap - self.off
    }

    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        if self.capacity() - self.len < additional {
            self.roll(additional);
        }
    }

    #[cold]
    #[inline(never)]
    fn roll(&mut self, additional: usize) {}

    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {}

    #[inline]
    pub fn pack_frozen(&mut self, data: &[u8]) -> usize {
        0
    }

    #[inline]
    pub fn pack_view(&mut self, data: &[u8]) -> Bytes {
        Bytes::new()
    }

    #[inline]
    pub fn frozen(&self, range: Range<usize>) -> Bytes {
        Bytes::new()
    }
}

impl Drop for BytesMut {
    fn drop(&mut self) {}
}
