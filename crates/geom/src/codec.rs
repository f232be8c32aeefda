//! A compact binary codec for `(tuple id, Geometry)` records, used by the
//! storage-backed relations: spatial tuples are serialized into the
//! fixed-size disk records the cost model prices at `v` bytes each.
//!
//! v1 layout (little-endian):
//!
//! ```text
//! [ id: u64 ][ tag: u8 ][ count: u16 ][ coords: f64 × (2·count) ]
//! ```
//!
//! `count` is the vertex count (1 for points, 2 for rectangles). Records
//! may be zero-padded to any fixed record size ≥ the encoded length;
//! decoding ignores trailing padding.
//!
//! v2 ("q") frames compress polygon/polyline vertices to 16-bit grid
//! cells delta-encoded against the MBR anchor (see [`crate::qgeom`]),
//! carrying the exact MBR and the conservative error bound ε_q inline:
//!
//! ```text
//! [ id: u64 ][ qtag: u8 ][ count: u16 ]
//! [ mbr: f64 × 4 ][ eps: f64 ][ cells: (u16, u16) × count ]
//! ```
//!
//! Points and rectangles stay on their lossless v1 frames inside v2
//! files — [`try_decode_qrecord`] accepts both tag families. A 16-vertex
//! polygon shrinks from 267 bytes (v1) to 115 bytes (v2), ~2.3×, which
//! the paper's cost model prices directly as fewer `v`-byte transfers.

use std::fmt;

use crate::geometry::Geometry;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::polyline::Polyline;
use crate::qgeom::{dequantize, quantize_cells, QGeometry, QKind};
use crate::rect::Rect;

const TAG_POINT: u8 = 1;
const TAG_RECT: u8 = 2;
const TAG_POLYGON: u8 = 3;
const TAG_POLYLINE: u8 = 4;
const TAG_QPOLYGON: u8 = 0x83;
const TAG_QPOLYLINE: u8 = 0x84;

/// Decoding failure: the bytes do not form a well-formed record. The
/// storage layer maps this onto `StorageError::PageCorrupt` — a codec
/// failure on bytes read back from a page means the page is damaged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than the frame it claims to hold.
    Truncated {
        /// Bytes the frame needs.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The geometry tag byte is not one this codec ever writes.
    UnknownTag(u8),
    /// The frame parsed but does not describe a valid geometry
    /// (bad vertex count, non-finite bounds, non-simple ring, …).
    InvalidGeometry(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "record truncated: need {need} bytes, have {have}")
            }
            CodecError::UnknownTag(t) => write!(f, "unknown geometry tag {t}"),
            CodecError::InvalidGeometry(why) => write!(f, "invalid stored geometry: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Header bytes before the coordinate array.
pub const HEADER_LEN: usize = 8 + 1 + 2;

/// Number of bytes needed to encode `g` (before padding).
pub fn encoded_len(g: &Geometry) -> usize {
    let count = match g {
        Geometry::Point(_) => 1,
        Geometry::Rect(_) => 2,
        Geometry::Polygon(p) => p.len(),
        Geometry::Polyline(l) => l.len(),
    };
    HEADER_LEN + 16 * count
}

/// Encodes a record, zero-padded to exactly `record_size` bytes.
///
/// # Panics
///
/// Panics if the encoding does not fit in `record_size` (the caller chose
/// a tuple size `v` too small for its geometry) or if a vertex count
/// exceeds `u16::MAX`.
pub fn encode_record(id: u64, g: &Geometry, record_size: usize) -> Vec<u8> {
    let need = encoded_len(g);
    assert!(
        need <= record_size,
        "geometry needs {need} bytes but the record size is {record_size}"
    );
    let mut buf = Vec::with_capacity(record_size);
    buf.extend_from_slice(&id.to_le_bytes());
    let (tag, points): (u8, Vec<Point>) = match g {
        Geometry::Point(p) => (TAG_POINT, vec![*p]),
        Geometry::Rect(r) => (TAG_RECT, vec![r.lo, r.hi]),
        Geometry::Polygon(p) => (TAG_POLYGON, p.vertices().to_vec()),
        Geometry::Polyline(l) => (TAG_POLYLINE, l.vertices().to_vec()),
    };
    buf.push(tag);
    let count = u16::try_from(points.len()).expect("vertex count exceeds u16");
    buf.extend_from_slice(&count.to_le_bytes());
    for p in points {
        buf.extend_from_slice(&p.x.to_le_bytes());
        buf.extend_from_slice(&p.y.to_le_bytes());
    }
    buf.resize(record_size, 0);
    buf
}

/// Decodes a v1 record produced by [`encode_record`] (padding is
/// ignored), reporting malformed bytes as a typed [`CodecError`] instead
/// of panicking. This is the entry point for every storage-backed reader:
/// bytes that round-tripped through disk pages can be damaged, and the
/// damage must surface as `StorageError::PageCorrupt`, not a crash.
pub fn try_decode_record(bytes: &[u8]) -> Result<(u64, Geometry), CodecError> {
    let (id, tag, count) = try_header(bytes)?;
    let need = HEADER_LEN + 16 * count;
    if bytes.len() < need {
        return Err(CodecError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    let points = read_points(bytes, HEADER_LEN, count)?;
    let g = match tag {
        TAG_POINT => {
            if count != 1 {
                return Err(CodecError::InvalidGeometry("point count != 1"));
            }
            Geometry::Point(points[0])
        }
        TAG_RECT => {
            if count != 2 {
                return Err(CodecError::InvalidGeometry("rect count != 2"));
            }
            Geometry::Rect(Rect::new(points[0], points[1]))
        }
        TAG_POLYGON => Geometry::Polygon(
            Polygon::new(points).map_err(|_| CodecError::InvalidGeometry("bad polygon ring"))?,
        ),
        TAG_POLYLINE => Geometry::Polyline(
            Polyline::new(points).map_err(|_| CodecError::InvalidGeometry("bad polyline"))?,
        ),
        other => return Err(CodecError::UnknownTag(other)),
    };
    Ok((id, g))
}

fn try_header(bytes: &[u8]) -> Result<(u64, u8, usize), CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            need: HEADER_LEN,
            have: bytes.len(),
        });
    }
    let id = u64::from_le_bytes(bytes[0..8].try_into().expect("sliced"));
    let tag = bytes[8];
    let count = u16::from_le_bytes(bytes[9..11].try_into().expect("sliced")) as usize;
    Ok((id, tag, count))
}

/// Reads `count` coordinate pairs. Finiteness is checked on the raw
/// floats because [`Point::new`] panics on NaN/∞.
fn read_points(bytes: &[u8], base: usize, count: usize) -> Result<Vec<Point>, CodecError> {
    let mut points = Vec::with_capacity(count);
    for i in 0..count {
        let off = base + 16 * i;
        let x = f64::from_le_bytes(bytes[off..off + 8].try_into().expect("sliced"));
        let y = f64::from_le_bytes(bytes[off + 8..off + 16].try_into().expect("sliced"));
        if !(x.is_finite() && y.is_finite()) {
            return Err(CodecError::InvalidGeometry("non-finite coordinate"));
        }
        points.push(Point::new(x, y));
    }
    Ok(points)
}

/// v2 header bytes before the cell array: the common header plus the MBR
/// anchor (4 × f64) and ε_q (f64).
pub const QHEADER_LEN: usize = HEADER_LEN + 40;

/// Number of bytes a v2 ("q") frame needs for `g` (before padding).
/// Points and rectangles keep their lossless v1 frames.
pub fn encoded_qlen(g: &Geometry) -> usize {
    match g {
        Geometry::Point(_) | Geometry::Rect(_) => encoded_len(g),
        Geometry::Polygon(p) => QHEADER_LEN + 4 * p.len(),
        Geometry::Polyline(l) => QHEADER_LEN + 4 * l.len(),
    }
}

/// Encodes a v2 record, zero-padded to exactly `record_size` bytes:
/// vertices quantized against the MBR anchor, with the exact MBR and the
/// measured error bound ε_q stored inline. Points and rectangles are
/// written as their (lossless) v1 frames.
///
/// # Panics
///
/// Panics if the encoding does not fit in `record_size` or if a vertex
/// count exceeds `u16::MAX`.
pub fn encode_qrecord(id: u64, g: &Geometry, record_size: usize) -> Vec<u8> {
    let (tag, mbr, verts): (u8, Rect, &[Point]) = match g {
        Geometry::Point(_) | Geometry::Rect(_) => return encode_record(id, g, record_size),
        Geometry::Polygon(p) => (TAG_QPOLYGON, p.mbr(), p.vertices()),
        Geometry::Polyline(l) => (TAG_QPOLYLINE, l.mbr(), l.vertices()),
    };
    let need = encoded_qlen(g);
    assert!(
        need <= record_size,
        "geometry needs {need} bytes but the record size is {record_size}"
    );
    let (cells, eps) = quantize_cells(&mbr, verts);
    let mut buf = Vec::with_capacity(record_size);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.push(tag);
    let count = u16::try_from(cells.len()).expect("vertex count exceeds u16");
    buf.extend_from_slice(&count.to_le_bytes());
    for v in [mbr.lo.x, mbr.lo.y, mbr.hi.x, mbr.hi.y, eps] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for (cx, cy) in cells {
        buf.extend_from_slice(&cx.to_le_bytes());
        buf.extend_from_slice(&cy.to_le_bytes());
    }
    buf.resize(record_size, 0);
    buf
}

/// Decodes a v2 record into a [`QGeometry`]. Accepts both tag families:
/// v1 point/rect frames (lossless, ε_q = 0) and v2 quantized frames.
pub fn try_decode_qrecord(bytes: &[u8]) -> Result<(u64, QGeometry), CodecError> {
    let (id, tag, count) = try_header(bytes)?;
    let (kind, min_count) = match tag {
        TAG_POINT | TAG_RECT => {
            let (id, g) = try_decode_record(bytes)?;
            return Ok((id, QGeometry::quantize(&g)));
        }
        TAG_QPOLYGON => (QKind::Polygon, 3),
        TAG_QPOLYLINE => (QKind::Polyline, 2),
        other => return Err(CodecError::UnknownTag(other)),
    };
    let need = QHEADER_LEN + 4 * count;
    if bytes.len() < need {
        return Err(CodecError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    if count < min_count {
        return Err(CodecError::InvalidGeometry("vertex count below minimum"));
    }
    let mut f = [0.0f64; 5];
    for (i, v) in f.iter_mut().enumerate() {
        let off = HEADER_LEN + 8 * i;
        *v = f64::from_le_bytes(bytes[off..off + 8].try_into().expect("sliced"));
    }
    let [lx, ly, hx, hy, eps] = f;
    if !(lx.is_finite() && ly.is_finite() && hx.is_finite() && hy.is_finite()) {
        return Err(CodecError::InvalidGeometry("non-finite MBR"));
    }
    if lx > hx || ly > hy {
        return Err(CodecError::InvalidGeometry("inverted MBR"));
    }
    if !eps.is_finite() || eps < 0.0 {
        return Err(CodecError::InvalidGeometry("bad error bound"));
    }
    let mbr = Rect::from_bounds(lx, ly, hx, hy);
    let mut cells = Vec::with_capacity(count);
    for i in 0..count {
        let off = QHEADER_LEN + 4 * i;
        let cx = u16::from_le_bytes(bytes[off..off + 2].try_into().expect("sliced"));
        let cy = u16::from_le_bytes(bytes[off + 2..off + 4].try_into().expect("sliced"));
        cells.push((cx, cy));
    }
    let verts = dequantize(&mbr, &cells);
    Ok((id, QGeometry::from_parts(kind, mbr, eps, verts)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(id: u64, g: Geometry) {
        let rec = encode_record(id, &g, 300);
        assert_eq!(rec.len(), 300);
        let (id2, g2) = try_decode_record(&rec).unwrap();
        assert_eq!(id, id2);
        assert_eq!(g, g2);
    }

    #[test]
    fn point_roundtrip() {
        roundtrip(42, Geometry::Point(Point::new(1.5, -2.5)));
    }

    #[test]
    fn rect_roundtrip() {
        roundtrip(7, Geometry::Rect(Rect::from_bounds(0.0, 1.0, 2.0, 3.0)));
    }

    #[test]
    fn polygon_roundtrip() {
        let poly = Polygon::regular(Point::new(10.0, 10.0), 5.0, 7);
        roundtrip(u64::MAX, Geometry::Polygon(poly));
    }

    #[test]
    fn polyline_roundtrip() {
        let line = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 2.0),
            Point::new(3.0, 1.0),
        ])
        .unwrap();
        roundtrip(0, Geometry::Polyline(line));
    }

    #[test]
    fn encoded_len_matches() {
        let g = Geometry::Point(Point::new(0.0, 0.0));
        assert_eq!(encoded_len(&g), 11 + 16);
        let r = Geometry::Rect(Rect::from_bounds(0.0, 0.0, 1.0, 1.0));
        assert_eq!(encoded_len(&r), 11 + 32);
    }

    #[test]
    #[should_panic(expected = "record size")]
    fn oversized_geometry_rejected() {
        let poly = Polygon::regular(Point::new(0.0, 0.0), 5.0, 30);
        let _ = encode_record(1, &Geometry::Polygon(poly), 64);
    }

    #[test]
    fn padding_is_ignored() {
        let g = Geometry::Point(Point::new(9.0, 9.0));
        let small = encode_record(5, &g, encoded_len(&g));
        let large = encode_record(5, &g, 1000);
        assert_eq!(try_decode_record(&small), try_decode_record(&large));
    }

    #[test]
    fn try_decode_reports_typed_errors() {
        // Truncated header.
        assert!(matches!(
            try_decode_record(&[0u8; 4]),
            Err(CodecError::Truncated { .. })
        ));
        // Header fine, coordinate array truncated.
        let g = Geometry::Rect(Rect::from_bounds(0.0, 0.0, 1.0, 1.0));
        let rec = encode_record(9, &g, encoded_len(&g));
        assert!(matches!(
            try_decode_record(&rec[..HEADER_LEN + 3]),
            Err(CodecError::Truncated { .. })
        ));
        // Unknown tag.
        let mut bad = rec.clone();
        bad[8] = 0x7f;
        assert!(matches!(
            try_decode_record(&bad),
            Err(CodecError::UnknownTag(0x7f))
        ));
        // A non-finite coordinate is rejected before a `Point` is built.
        let mut nan = rec.clone();
        nan[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            try_decode_record(&nan),
            Err(CodecError::InvalidGeometry("non-finite coordinate"))
        );
        // Collinear "polygon" is invalid.
        let mut line = encode_record(
            1,
            &Geometry::Polyline(
                Polyline::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(1.0, 1.0),
                    Point::new(2.0, 2.0),
                ])
                .unwrap(),
            ),
            300,
        );
        line[8] = 3; // rewrite tag: polyline bytes, polygon tag
        assert!(matches!(
            try_decode_record(&line),
            Err(CodecError::InvalidGeometry(_))
        ));
    }

    #[test]
    fn qrecord_roundtrip_matches_quantize() {
        use crate::qgeom::QGeometry;
        let poly = Geometry::Polygon(Polygon::regular(Point::new(10.0, 10.0), 5.0, 16));
        let rec = encode_qrecord(77, &poly, 300);
        let (id, q) = try_decode_qrecord(&rec).unwrap();
        assert_eq!(id, 77);
        // Decoding reproduces exactly what in-memory quantization builds.
        assert_eq!(q, QGeometry::quantize(&poly));
    }

    #[test]
    fn qrecord_accepts_lossless_v1_frames() {
        use crate::qgeom::{QGeometry, QKind};
        let p = Geometry::Point(Point::new(3.0, 4.0));
        let rec = encode_qrecord(5, &p, 64);
        let (id, q) = try_decode_qrecord(&rec).unwrap();
        assert_eq!((id, q.kind()), (5, QKind::Point));
        assert_eq!(q, QGeometry::quantize(&p));
    }

    #[test]
    fn qlen_is_smaller_for_polygons() {
        let poly = Geometry::Polygon(Polygon::regular(Point::new(0.0, 0.0), 5.0, 16));
        assert_eq!(encoded_len(&poly), 11 + 16 * 16); // 267
        assert_eq!(encoded_qlen(&poly), 11 + 40 + 4 * 16); // 115
        let pt = Geometry::Point(Point::new(0.0, 0.0));
        assert_eq!(encoded_qlen(&pt), encoded_len(&pt));
    }

    #[test]
    fn qrecord_rejects_corruption() {
        let poly = Geometry::Polygon(Polygon::regular(Point::new(0.0, 0.0), 5.0, 8));
        let rec = encode_qrecord(1, &poly, 300);
        assert!(matches!(
            try_decode_qrecord(&rec[..QHEADER_LEN - 1]),
            Err(CodecError::Truncated { .. })
        ));
        let mut bad = rec.clone();
        bad[9] = 1; // count = 1 < 3 for a polygon
        bad[10] = 0;
        assert!(matches!(
            try_decode_qrecord(&bad),
            Err(CodecError::InvalidGeometry(_))
        ));
        let mut swapped = rec;
        // Swap mbr lo.x / hi.x → inverted MBR.
        let lo: Vec<u8> = swapped[HEADER_LEN..HEADER_LEN + 8].to_vec();
        let hi: Vec<u8> = swapped[HEADER_LEN + 16..HEADER_LEN + 24].to_vec();
        swapped[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&hi);
        swapped[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&lo);
        assert!(matches!(
            try_decode_qrecord(&swapped),
            Err(CodecError::InvalidGeometry(_))
        ));
    }
}
