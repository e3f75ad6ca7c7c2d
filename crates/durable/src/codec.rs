//! Shared little-endian byte codec for WAL payloads and snapshot shards.

use crate::DurableError;
use tgnn_graph::InteractionEvent;
use tgnn_tensor::Float;

/// A bounds-checked read cursor over an encoded payload.
pub(crate) struct Cursor<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        if n > self.data.len() - self.pos {
            return Err(DurableError::corrupt("payload truncated"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DurableError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DurableError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DurableError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DurableError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn floats(&mut self, n: usize) -> Result<Vec<Float>, DurableError> {
        if n > self.data.len() / 4 + 1 {
            return Err(DurableError::corrupt("float vector length implausible"));
        }
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| Float::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub(crate) fn event(&mut self) -> Result<InteractionEvent, DurableError> {
        Ok(InteractionEvent {
            src: self.u32()?,
            dst: self.u32()?,
            edge_id: self.u32()?,
            timestamp: self.f64()?,
        })
    }

    pub(crate) fn done(&self) -> Result<(), DurableError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(DurableError::corrupt("trailing bytes in payload"))
        }
    }
}

/// Appends `xs` little-endian: on a little-endian target, one block copy
/// of the floats' bytes.
pub(crate) fn put_floats(buf: &mut Vec<u8>, xs: &[Float]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: the slice covers exactly the bytes of `xs`, which `u8`
        // may read at any alignment; an `f32` has no padding bytes.
        let bytes = unsafe {
            std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs))
        };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}
