//! Memory-image checkpointing: serialize a PolyMem (configuration + full
//! contents) to a compact binary image and restore it.
//!
//! Motivation from the paper's system picture (Fig. 1): PolyMem is a
//! software cache whose contents the *host* stages in and out around
//! kernels. A stable binary image format lets a host checkpoint the cache
//! between application phases, ship it across the PCIe link as one blob,
//! or persist it for replay — and it gives the repository a
//! forward-compatible wire format exercised by round-trip tests.
//!
//! Both directions ride the whole-space segment replay:
//! [`PolyMem::dump_row_major`] gathers and [`PolyMem::load_row_major`]
//! scatters through the compiled whole-region plan's segments (block
//! moves for unit-stride segments), so imaging cost tracks memcpy rather
//! than a per-element loop. The payload is row-major *logical* order —
//! deliberately independent of the flat [`BankLayout`], so an image taken
//! from an interleaved memory restores into any layout.
//!
//! [`BankLayout`]: crate::BankLayout
//!
//! ## Format (`PMIM`, version 1, little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic "PMIM"
//!      4     2  version (1)
//!      6     1  scheme (0..=4, Table I order)
//!      7     1  reserved (0)
//!      8     8  rows        16 8  cols
//!     24     8  p           32 8  q
//!     40     8  read_ports  48 8  element_bytes
//!     56     8  payload element count (rows*cols)
//!     64     -  payload: row-major u64 element bits
//! ```

use crate::config::PolyMemConfig;
use crate::error::{PolyMemError, Result};
use crate::mem::PolyMem;
use crate::scheme::AccessScheme;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"PMIM";
const VERSION: u16 = 1;
const HEADER_LEN: usize = 64;

fn scheme_code(s: AccessScheme) -> u8 {
    AccessScheme::ALL.iter().position(|&x| x == s).unwrap() as u8
}

fn scheme_from_code(c: u8) -> Result<AccessScheme> {
    AccessScheme::ALL
        .get(c as usize)
        .copied()
        .ok_or_else(|| PolyMemError::InvalidGeometry {
            reason: format!("unknown scheme code {c} in memory image"),
        })
}

/// Serialize `mem` (configuration + contents) into a binary image.
pub fn to_image(mem: &PolyMem<u64>) -> Bytes {
    let cfg = mem.config();
    let data = mem.dump_row_major();
    let mut buf = BytesMut::with_capacity(HEADER_LEN + data.len() * 8);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(scheme_code(cfg.scheme));
    buf.put_u8(0);
    buf.put_u64_le(cfg.rows as u64);
    buf.put_u64_le(cfg.cols as u64);
    buf.put_u64_le(cfg.p as u64);
    buf.put_u64_le(cfg.q as u64);
    buf.put_u64_le(cfg.read_ports as u64);
    buf.put_u64_le(cfg.element_bytes as u64);
    buf.put_u64_le(data.len() as u64);
    for v in data {
        buf.put_u64_le(v);
    }
    buf.freeze()
}

/// Restore a PolyMem from an image produced by [`to_image`].
pub fn from_image(mut image: Bytes) -> Result<PolyMem<u64>> {
    let fail = |reason: String| PolyMemError::InvalidGeometry { reason };
    if image.len() < HEADER_LEN {
        return Err(fail(format!(
            "image truncated: {} bytes, header needs {HEADER_LEN}",
            image.len()
        )));
    }
    let mut magic = [0u8; 4];
    image.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(fail(format!("bad magic {magic:?}")));
    }
    let version = image.get_u16_le();
    if version != VERSION {
        return Err(fail(format!("unsupported image version {version}")));
    }
    let scheme = scheme_from_code(image.get_u8())?;
    let _reserved = image.get_u8();
    let rows = image.get_u64_le() as usize;
    let cols = image.get_u64_le() as usize;
    let p = image.get_u64_le() as usize;
    let q = image.get_u64_le() as usize;
    let read_ports = image.get_u64_le() as usize;
    let element_bytes = image.get_u64_le() as usize;
    let count = image.get_u64_le() as usize;
    if count != rows.saturating_mul(cols) {
        return Err(fail(format!(
            "payload count {count} inconsistent with {rows}x{cols}"
        )));
    }
    let payload_bytes = count
        .checked_mul(8)
        .ok_or_else(|| fail(format!("payload count {count} overflows")))?;
    if image.remaining() != payload_bytes {
        return Err(fail(format!(
            "payload truncated: {} bytes, expected {}",
            image.remaining(),
            payload_bytes
        )));
    }
    let mut cfg = PolyMemConfig::new(rows, cols, p, q, scheme, read_ports)?;
    cfg.element_bytes = element_bytes;
    cfg.validate()?;
    let mut mem = PolyMem::new(cfg)?;
    let mut data = Vec::with_capacity(count);
    for _ in 0..count {
        data.push(image.get_u64_le());
    }
    mem.load_row_major(&data)?;
    Ok(mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ParallelAccess;

    fn sample() -> PolyMem<u64> {
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut m = PolyMem::new(cfg).unwrap();
        let data: Vec<u64> = (0..256).map(|x| x * 997 + 13).collect();
        m.load_row_major(&data).unwrap();
        m
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = sample();
        let img = to_image(&m);
        assert_eq!(&img[..4], b"PMIM");
        let mut back = from_image(img).unwrap();
        assert_eq!(back.config(), m.config());
        assert_eq!(back.dump_row_major(), m.dump_row_major());
        // And the restored memory still serves parallel accesses.
        let row = back.read(0, ParallelAccess::row(3, 0)).unwrap();
        assert_eq!(row[0], 3 * 16 * 997 + 13);
    }

    #[test]
    fn roundtrip_all_schemes() {
        for scheme in AccessScheme::ALL {
            let cfg = PolyMemConfig::new(8, 16, 2, 4, scheme, 1).unwrap();
            let mut m = PolyMem::new(cfg).unwrap();
            m.set(5, 11, 42).unwrap();
            let back = from_image(to_image(&m)).unwrap();
            assert_eq!(back.config().scheme, scheme);
            assert_eq!(back.get(5, 11).unwrap(), 42);
        }
    }

    #[test]
    fn image_is_layout_independent() {
        use crate::banks::BankLayout;
        // An image taken from an interleaved-layout memory restores into
        // the default layout with identical logical contents: the payload
        // is logical row-major, not the flat backing order.
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 2)
            .unwrap()
            .with_layout(BankLayout::AddrInterleaved);
        let mut m = PolyMem::new(cfg).unwrap();
        let data: Vec<u64> = (0..256).map(|x| x * 31 + 7).collect();
        m.load_row_major(&data).unwrap();
        let back = from_image(to_image(&m)).unwrap();
        assert_eq!(back.dump_row_major(), data);
    }

    #[test]
    fn image_size_is_header_plus_payload() {
        let m = sample();
        assert_eq!(to_image(&m).len(), 64 + 256 * 8);
    }

    #[test]
    fn bad_magic_rejected() {
        let m = sample();
        let mut img = BytesMut::from(&to_image(&m)[..]);
        img[0] = b'X';
        assert!(from_image(img.freeze()).is_err());
    }

    #[test]
    fn truncation_rejected_cleanly() {
        let m = sample();
        let img = to_image(&m);
        for cut in [0usize, 10, 63, 64, 200, img.len() - 1] {
            let sliced = img.slice(..cut);
            assert!(from_image(sliced).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let m = sample();
        let mut img = BytesMut::from(&to_image(&m)[..]);
        img[4] = 99;
        let err = from_image(img.freeze()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // Deterministic fuzz: random buffers and random corruptions of a
        // valid image must produce Err, never a panic.
        let m = sample();
        let valid = to_image(&m);
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for round in 0..200 {
            let len = (next() as usize) % (valid.len() + 32);
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                *b = next() as u8;
            }
            // Half the rounds: corrupt the valid image instead.
            if round % 2 == 0 && !buf.is_empty() {
                let n = valid.len().min(buf.len());
                buf[..n].copy_from_slice(&valid[..n]);
                let pos = (next() as usize) % buf.len();
                buf[pos] ^= (next() as u8) | 1;
            }
            // Must not panic; Ok is allowed only if it round-trips sanely.
            if let Ok(mem) = from_image(Bytes::from(buf)) {
                assert!(mem.config().validate().is_ok());
            }
        }
    }

    #[test]
    fn corrupted_geometry_rejected() {
        let m = sample();
        let mut img = BytesMut::from(&to_image(&m)[..]);
        img[8] = 17; // rows = 17: no longer tiles p = 2, count mismatches
        assert!(from_image(img.freeze()).is_err());
    }
}
