//! A compact binary codec for `(tuple id, Geometry)` records, used by the
//! storage-backed relations: spatial tuples are serialized into the
//! fixed-size disk records the cost model prices at `v` bytes each.
//!
//! v1 layout (little-endian):
//!
//! ```text
//! [ id: u64 ][ tag: u8 ][ count: u16 ][ checksum: u64 ][ coords: f64 × (2·count) ]
//! ```
//!
//! `count` is the vertex count (1 for points, 2 for rectangles). The
//! checksum covers the id, tag, count and coordinates, and every v1
//! decoder verifies it: a flipped bit anywhere in those bytes is a
//! [`CodecError`], never a different valid geometry. Records may be
//! zero-padded to any fixed record size ≥ the encoded length; decoding
//! ignores trailing padding.
//!
//! Trust: a frame whose checksum verifies holds what [`encode_record`]
//! wrote, and the encoder only ever sees geometries their constructors
//! validated. So the page-read decoders — [`try_decode_record`] and the
//! MBR scan's [`try_decode_mbr`] — skip `Polygon::new`'s ring check (n²
//! orientations). Bytes from outside the process (a write-ahead log being
//! recovered, a saved database) go through [`try_decode_untrusted`],
//! which runs it: anyone can compute the checksum of a frame they forged.
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
//! polygon shrinks from 275 bytes (v1) to 115 bytes (v2), ~2.4×, which
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
    /// The v1 frame's checksum does not match its bytes.
    ChecksumMismatch,
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
            CodecError::ChecksumMismatch => write!(f, "record checksum mismatch"),
            CodecError::InvalidGeometry(why) => write!(f, "invalid stored geometry: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The id, tag and count every frame starts with.
const ID_TAG_COUNT: usize = 8 + 1 + 2;

/// v1 header bytes before the coordinate array: id, tag, count and the
/// checksum.
pub const HEADER_LEN: usize = ID_TAG_COUNT + 8;

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
    let corners;
    let (tag, points): (u8, &[Point]) = match g {
        Geometry::Point(p) => (TAG_POINT, std::slice::from_ref(p)),
        Geometry::Rect(r) => {
            corners = [r.lo, r.hi];
            (TAG_RECT, &corners)
        }
        Geometry::Polygon(p) => (TAG_POLYGON, p.vertices()),
        Geometry::Polyline(l) => (TAG_POLYLINE, l.vertices()),
    };
    let count = u16::try_from(points.len()).expect("vertex count exceeds u16");
    let mut buf = Vec::with_capacity(record_size);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(&[0; 8]);
    for p in points {
        buf.extend_from_slice(&p.x.to_le_bytes());
        buf.extend_from_slice(&p.y.to_le_bytes());
    }
    seal_record(&mut buf);
    buf.resize(record_size, 0);
    buf
}

/// Writes the checksum of the v1 frame at the start of `frame` into its
/// header. [`encode_record`] seals every frame it writes; tests call it
/// to forge frames that pass the checksum but hold something else.
///
/// # Panics
///
/// Panics if `frame` is shorter than the frame its header describes.
#[doc(hidden)]
pub fn seal_record(frame: &mut [u8]) {
    let count = usize::from(u16::from_le_bytes([frame[9], frame[10]]));
    let mut sum = Checksum::new(frame);
    frame[HEADER_LEN..HEADER_LEN + 16 * count]
        .chunks_exact(16)
        .for_each(|v| sum.push(v));
    let sum = sum.finish();
    frame[ID_TAG_COUNT..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

/// The little-endian `u64` at `at`.
fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("sliced"))
}

/// The v1 frame checksum over the id, tag, count and coordinates, a word
/// at a time in two lanes (x coordinates in one, y in the other, so a
/// vertex costs two independent multiply steps). Each step is a
/// bijection of its lane, so two frames of one count that differ in one
/// word — any single flipped bit but the count's — never checksum alike.
struct Checksum {
    x: u64,
    y: u64,
}

impl Checksum {
    /// Starts the sum with the frame's id and its tag and count bytes.
    fn new(frame: &[u8]) -> Self {
        let head = u64::from_le_bytes([frame[8], frame[9], frame[10], 0, 0, 0, 0, 0]);
        Checksum {
            x: Self::step(word(frame, 0)),
            y: Self::step(!head),
        }
    }

    #[inline]
    fn step(h: u64) -> u64 {
        h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
    }

    /// Adds one vertex: its 16 coordinate bytes.
    #[inline]
    fn push(&mut self, vertex: &[u8]) {
        self.x = Self::step(self.x ^ word(vertex, 0));
        self.y = Self::step(self.y ^ word(vertex, 8));
    }

    fn finish(self) -> u64 {
        Self::step(Self::step(self.x) ^ self.y)
    }
}

/// Walks a v1 frame in one pass: parses the header, checks the vertex
/// count against the tag and every coordinate for finiteness (on the raw
/// floats, because [`Point::new`] panics on NaN/∞), folds the MBR, and
/// verifies the checksum. A polygon's or polyline's vertices are
/// appended to `ring` when one is given. Returns the id, kind and MBR.
fn try_walk(
    bytes: &[u8],
    mut ring: Option<&mut Vec<Point>>,
) -> Result<(u64, QKind, Rect), CodecError> {
    let (id, tag, count) = try_header(bytes)?;
    let kind = match (tag, count) {
        (TAG_POINT, 1) => QKind::Point,
        (TAG_RECT, 2) => QKind::Rect,
        (TAG_POLYGON, 3..) => QKind::Polygon,
        (TAG_POLYLINE, 2..) => QKind::Polyline,
        (TAG_POINT | TAG_RECT | TAG_POLYGON | TAG_POLYLINE, _) => {
            return Err(CodecError::InvalidGeometry(
                "vertex count does not fit the tag",
            ))
        }
        (other, _) => return Err(CodecError::UnknownTag(other)),
    };
    let need = HEADER_LEN + 16 * count;
    if bytes.len() < need {
        return Err(CodecError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    if !matches!(kind, QKind::Polygon | QKind::Polyline) {
        ring = None;
    }
    if let Some(ring) = ring.as_deref_mut() {
        ring.reserve_exact(count);
    }
    let mut sum = Checksum::new(bytes);
    let mut mbr: Option<Rect> = None;
    for v in bytes[HEADER_LEN..need].chunks_exact(16) {
        sum.push(v);
        let (x, y) = (f64::from_bits(word(v, 0)), f64::from_bits(word(v, 8)));
        if !(x.is_finite() && y.is_finite()) {
            return Err(CodecError::InvalidGeometry("non-finite coordinate"));
        }
        let p = Point::new(x, y);
        mbr = Some(match mbr {
            None => Rect::from_point(p),
            Some(r) => Rect {
                lo: r.lo.min(&p),
                hi: r.hi.max(&p),
            },
        });
        if let Some(ring) = ring.as_deref_mut() {
            ring.push(p);
        }
    }
    if sum.finish() != word(bytes, ID_TAG_COUNT) {
        return Err(CodecError::ChecksumMismatch);
    }
    let mbr = mbr.ok_or(CodecError::InvalidGeometry("no vertex"))?;
    Ok((id, kind, mbr))
}

/// Decodes a v1 record produced by [`encode_record`] (padding is
/// ignored), reporting malformed bytes as a typed [`CodecError`] instead
/// of panicking. This is the page-read path: bytes that round-tripped
/// through this process's disk pages can be damaged, and the damage must
/// surface as `StorageError::PageCorrupt`, not a crash. A polygon is
/// rebuilt without the ring check (see the module's trust note).
pub fn try_decode_record(bytes: &[u8]) -> Result<(u64, Geometry), CodecError> {
    try_decode(bytes, false)
}

/// [`try_decode_record`] for bytes from outside the process: a polygon
/// must also pass `Polygon::new`'s ring check.
pub fn try_decode_untrusted(bytes: &[u8]) -> Result<(u64, Geometry), CodecError> {
    try_decode(bytes, true)
}

fn try_decode(bytes: &[u8], check_ring: bool) -> Result<(u64, Geometry), CodecError> {
    let mut ring = Vec::new();
    let (id, kind, mbr) = try_walk(bytes, Some(&mut ring))?;
    // A point is its MBR's corner and a rectangle its MBR, bit for bit.
    let g = match kind {
        QKind::Point => Geometry::Point(mbr.lo),
        QKind::Rect => Geometry::Rect(mbr),
        QKind::Polygon if check_ring => Geometry::Polygon(
            Polygon::new(ring).map_err(|_| CodecError::InvalidGeometry("bad polygon ring"))?,
        ),
        QKind::Polygon => Geometry::Polygon(Polygon::from_stored_ring(ring, mbr)),
        QKind::Polyline => Geometry::Polyline(
            Polyline::new(ring).map_err(|_| CodecError::InvalidGeometry("bad polyline"))?,
        ),
    };
    Ok((id, g))
}

/// The MBR scan's page read: a v1 record's id, kind and MBR straight
/// from its raw coordinates — checksum, count and finiteness checked as
/// [`try_decode_record`] checks them, but no vertex list allocated and
/// no geometry built. The MBR is bit-identical to the decoded
/// geometry's.
pub fn try_decode_mbr(bytes: &[u8]) -> Result<(u64, QKind, Rect), CodecError> {
    try_walk(bytes, None)
}

fn try_header(bytes: &[u8]) -> Result<(u64, u8, usize), CodecError> {
    if bytes.len() < ID_TAG_COUNT {
        return Err(CodecError::Truncated {
            need: ID_TAG_COUNT,
            have: bytes.len(),
        });
    }
    let count = u16::from_le_bytes([bytes[9], bytes[10]]);
    Ok((word(bytes, 0), bytes[8], usize::from(count)))
}

/// v2 header bytes before the cell array: the common header plus the MBR
/// anchor (4 × f64) and ε_q (f64).
pub const QHEADER_LEN: usize = ID_TAG_COUNT + 40;

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
        *v = f64::from_bits(word(bytes, ID_TAG_COUNT + 8 * i));
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
        assert_eq!(encoded_len(&g), 19 + 16);
        let r = Geometry::Rect(Rect::from_bounds(0.0, 0.0, 1.0, 1.0));
        assert_eq!(encoded_len(&r), 19 + 32);
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
        // A changed coordinate no longer matches the checksum.
        let mut moved = rec.clone();
        moved[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&0.5f64.to_le_bytes());
        assert_eq!(try_decode_record(&moved), Err(CodecError::ChecksumMismatch));
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
        seal_record(&mut line);
        assert!(matches!(
            try_decode_untrusted(&line),
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
        assert_eq!(encoded_len(&poly), 19 + 16 * 16); // 275
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
        let lo: Vec<u8> = swapped[ID_TAG_COUNT..ID_TAG_COUNT + 8].to_vec();
        let hi: Vec<u8> = swapped[ID_TAG_COUNT + 16..ID_TAG_COUNT + 24].to_vec();
        swapped[ID_TAG_COUNT..ID_TAG_COUNT + 8].copy_from_slice(&hi);
        swapped[ID_TAG_COUNT + 16..ID_TAG_COUNT + 24].copy_from_slice(&lo);
        assert!(matches!(
            try_decode_qrecord(&swapped),
            Err(CodecError::InvalidGeometry(_))
        ));
    }

    /// One frame of each v1 kind: a point, a rectangle, a 24-gon and a
    /// polyline, padded to the benchmark's 480-byte slot.
    fn frames() -> Vec<(Geometry, Vec<u8>)> {
        let line = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 2.0),
            Point::new(3.0, 1.0),
        ];
        [
            Geometry::Point(Point::new(1.5, -2.5)),
            Geometry::Rect(Rect::from_bounds(0.0, 1.0, 2.0, 3.0)),
            Geometry::Polygon(Polygon::regular(Point::new(10.0, 10.0), 5.0, 24)),
            Geometry::Polyline(Polyline::new(line).unwrap()),
        ]
        .into_iter()
        .enumerate()
        .map(|(id, g)| {
            let rec = encode_record(1000 + id as u64, &g, 480);
            (g, rec)
        })
        .collect()
    }

    #[test]
    fn every_flipped_bit_of_a_frame_is_an_error() {
        for (g, rec) in frames() {
            let used = encoded_len(&g);
            for bit in 0..used * 8 {
                let mut bad = rec.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(try_decode_record(&bad).is_err(), "{g:?} bit {bit}");
                assert!(try_decode_mbr(&bad).is_err(), "{g:?} bit {bit}");
                assert!(try_decode_untrusted(&bad).is_err(), "{g:?} bit {bit}");
            }
        }
    }

    #[test]
    fn a_flipped_bit_in_the_padding_is_ignored() {
        for (g, rec) in frames() {
            let want = (try_decode_record(&rec), try_decode_mbr(&rec));
            for bit in encoded_len(&g) * 8..rec.len() * 8 {
                let mut padded = rec.clone();
                padded[bit / 8] ^= 1 << (bit % 8);
                assert_eq!((try_decode_record(&padded), try_decode_mbr(&padded)), want);
            }
        }
    }

    #[test]
    fn the_mbr_scan_agrees_with_the_full_decode() {
        for (g, rec) in frames() {
            let (id, decoded) = try_decode_record(&rec).unwrap();
            assert_eq!(decoded, g);
            let (scan_id, kind, mbr) = try_decode_mbr(&rec).unwrap();
            assert_eq!((scan_id, kind), (id, QGeometry::quantize(&g).kind()));
            assert_eq!(mbr, crate::Bounded::mbr(&g));
        }
    }

    /// A frame forged around a self-intersecting ring, with a valid
    /// checksum: the page-read path trusts it, outside bytes do not.
    #[test]
    fn only_the_untrusted_decode_runs_the_ring_check() {
        let square = Polygon::from_rect(&Rect::from_bounds(0.0, 0.0, 4.0, 4.0)).unwrap();
        let mut rec = encode_record(9, &Geometry::Polygon(square), 128);
        let bowtie = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0), (3.0, 5.0)];
        for (i, (x, y)) in bowtie.into_iter().enumerate() {
            let at = HEADER_LEN + 16 * i;
            rec[at..at + 8].copy_from_slice(&f64::to_le_bytes(x));
            rec[at + 8..at + 16].copy_from_slice(&f64::to_le_bytes(y));
        }
        assert_eq!(try_decode_record(&rec), Err(CodecError::ChecksumMismatch));
        seal_record(&mut rec);
        assert!(try_decode_record(&rec).is_ok());
        assert_eq!(
            try_decode_untrusted(&rec),
            Err(CodecError::InvalidGeometry("bad polygon ring"))
        );
    }
}
