//! Bit-level packet codecs: Ethernet/802.1Q, IPv4, ATM, AAL5.
//!
//! These are deliberately small but *real*: correct field layouts, a real
//! IPv4 header checksum and a real CRC-32 for AAL5, so the application
//! scenarios exercise the queue engine with byte-accurate traffic.

use core::fmt;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// An 802.1Q VLAN tag: 3-bit priority (802.1p) + 12-bit VLAN id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VlanTag {
    /// Priority code point (0–7), the 802.1p class.
    pub pcp: u8,
    /// VLAN identifier (0–4095).
    pub vid: u16,
}

/// Codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer is shorter than the header requires.
    Truncated,
    /// A checksum or CRC failed.
    BadChecksum,
    /// A field held an invalid value.
    BadField(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer too short"),
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
            CodecError::BadField(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An Ethernet II frame, optionally 802.1Q-tagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Optional VLAN tag.
    pub vlan: Option<VlanTag>,
    /// EtherType of the payload.
    pub ethertype: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl EthernetFrame {
    /// The 802.1Q tag protocol identifier.
    pub const TPID_VLAN: u16 = 0x8100;

    /// Serializes the frame, unpadded.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(18 + self.payload.len());
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        if let Some(tag) = self.vlan {
            out.extend_from_slice(&Self::TPID_VLAN.to_be_bytes());
            let tci = ((tag.pcp as u16 & 0x7) << 13) | (tag.vid & 0x0FFF);
            out.extend_from_slice(&tci.to_be_bytes());
        }
        out.extend_from_slice(&self.ethertype.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a frame.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the buffer is shorter than the header.
    pub fn parse(bytes: &[u8]) -> Result<EthernetFrame, CodecError> {
        if bytes.len() < 14 {
            return Err(CodecError::Truncated);
        }
        let dst = MacAddr(bytes[0..6].try_into().expect("fixed slice"));
        let src = MacAddr(bytes[6..12].try_into().expect("fixed slice"));
        let tpid = u16::from_be_bytes([bytes[12], bytes[13]]);
        if tpid == Self::TPID_VLAN {
            if bytes.len() < 18 {
                return Err(CodecError::Truncated);
            }
            let tci = u16::from_be_bytes([bytes[14], bytes[15]]);
            let ethertype = u16::from_be_bytes([bytes[16], bytes[17]]);
            Ok(EthernetFrame {
                dst,
                src,
                vlan: Some(VlanTag {
                    pcp: (tci >> 13) as u8,
                    vid: tci & 0x0FFF,
                }),
                ethertype,
                payload: bytes[18..].to_vec(),
            })
        } else {
            Ok(EthernetFrame {
                dst,
                src,
                vlan: None,
                ethertype: tpid,
                payload: bytes[14..].to_vec(),
            })
        }
    }
}

/// RFC 1071 ones-complement checksum over 16-bit words.
pub fn internet_checksum(bytes: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = bytes.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// A minimal IPv4 packet (no options).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
    /// Protocol number (6 = TCP, 17 = UDP).
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Serializes with a correct header checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let total_len = 20 + self.payload.len() as u16;
        let mut hdr = [0u8; 20];
        hdr[0] = 0x45; // version 4, IHL 5
        hdr[2..4].copy_from_slice(&total_len.to_be_bytes());
        hdr[8] = self.ttl;
        hdr[9] = self.protocol;
        hdr[12..16].copy_from_slice(&self.src);
        hdr[16..20].copy_from_slice(&self.dst);
        let csum = internet_checksum(&hdr);
        hdr[10..12].copy_from_slice(&csum.to_be_bytes());
        let mut out = hdr.to_vec();
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and verifies the header checksum.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], [`CodecError::BadField`] for a version
    /// other than 4, or [`CodecError::BadChecksum`].
    pub fn parse(bytes: &[u8]) -> Result<Ipv4Packet, CodecError> {
        if bytes.len() < 20 {
            return Err(CodecError::Truncated);
        }
        if bytes[0] >> 4 != 4 {
            return Err(CodecError::BadField("version"));
        }
        if internet_checksum(&bytes[..20]) != 0 {
            return Err(CodecError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        if total_len < 20 || total_len > bytes.len() {
            return Err(CodecError::Truncated);
        }
        Ok(Ipv4Packet {
            src: bytes[12..16].try_into().expect("fixed slice"),
            dst: bytes[16..20].try_into().expect("fixed slice"),
            protocol: bytes[9],
            ttl: bytes[8],
            payload: bytes[20..total_len].to_vec(),
        })
    }
}

/// A 53-byte ATM cell (simplified UNI header, no HEC computation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtmCell {
    /// Virtual path identifier (8 bits at UNI).
    pub vpi: u8,
    /// Virtual channel identifier (16 bits).
    pub vci: u16,
    /// Payload-type indicator; bit 0 marks the last cell of an AAL5 frame.
    pub pti: u8,
    /// 48-byte payload.
    pub payload: [u8; 48],
}

impl AtmCell {
    /// Size of a cell on the wire.
    pub const SIZE: usize = 53;
    /// Payload bytes per cell.
    pub const PAYLOAD: usize = 48;

    /// Serializes the cell.
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut out = [0u8; Self::SIZE];
        // GFC=0 | VPI | VCI | PTI/CLP | HEC(0)
        out[0] = self.vpi >> 4;
        out[1] = (self.vpi << 4) | (self.vci >> 12) as u8;
        out[2] = (self.vci >> 4) as u8;
        out[3] = ((self.vci << 4) as u8) | (self.pti << 1);
        out[4] = 0; // HEC not modeled
        out[5..].copy_from_slice(&self.payload);
        out
    }

    /// Parses a cell.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 53 bytes are supplied.
    pub fn parse(bytes: &[u8]) -> Result<AtmCell, CodecError> {
        if bytes.len() < Self::SIZE {
            return Err(CodecError::Truncated);
        }
        let vpi = (bytes[0] << 4) | (bytes[1] >> 4);
        let vci =
            (((bytes[1] & 0x0F) as u16) << 12) | ((bytes[2] as u16) << 4) | (bytes[3] >> 4) as u16;
        let pti = (bytes[3] >> 1) & 0x7;
        Ok(AtmCell {
            vpi,
            vci,
            pti,
            payload: bytes[5..53].try_into().expect("fixed slice"),
        })
    }

    /// Whether this cell ends an AAL5 frame.
    pub const fn is_last(&self) -> bool {
        self.pti & 0x1 == 1
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), as used by AAL5.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encodes `pdu` as an AAL5 frame: pad to a cell multiple, append the
/// 8-byte trailer (UU/CPI, 16-bit length, CRC-32), split into cells.
pub fn aal5_encode(vpi: u8, vci: u16, pdu: &[u8]) -> Vec<AtmCell> {
    let with_trailer = pdu.len() + 8;
    let cells = with_trailer.div_ceil(AtmCell::PAYLOAD);
    let padded = cells * AtmCell::PAYLOAD;
    let mut buf = vec![0u8; padded];
    buf[..pdu.len()].copy_from_slice(pdu);
    let tlen = padded;
    buf[tlen - 6..tlen - 4].copy_from_slice(&(pdu.len() as u16).to_be_bytes());
    let crc = crc32(&buf[..tlen - 4]);
    buf[tlen - 4..].copy_from_slice(&crc.to_be_bytes());
    buf.chunks_exact(AtmCell::PAYLOAD)
        .enumerate()
        .map(|(i, chunk)| AtmCell {
            vpi,
            vci,
            pti: if i == cells - 1 { 1 } else { 0 },
            payload: chunk.try_into().expect("exact chunk"),
        })
        .collect()
}

/// Reassembles an AAL5 frame from its cells and verifies length + CRC.
///
/// # Errors
///
/// [`CodecError::BadField`] if the cell sequence is not a single complete
/// frame, [`CodecError::BadChecksum`] on CRC mismatch.
pub fn aal5_decode(cells: &[AtmCell]) -> Result<Vec<u8>, CodecError> {
    let Some((last, init)) = cells.split_last() else {
        return Err(CodecError::BadField("empty cell sequence"));
    };
    if !last.is_last() || init.iter().any(|c| c.is_last()) {
        return Err(CodecError::BadField("frame delimiting"));
    }
    let mut buf = Vec::with_capacity(cells.len() * AtmCell::PAYLOAD);
    for c in cells {
        buf.extend_from_slice(&c.payload);
    }
    let n = buf.len();
    let crc_stored = u32::from_be_bytes(buf[n - 4..].try_into().expect("fixed slice"));
    if crc32(&buf[..n - 4]) != crc_stored {
        return Err(CodecError::BadChecksum);
    }
    let len = u16::from_be_bytes([buf[n - 6], buf[n - 5]]) as usize;
    if len + 8 > n {
        return Err(CodecError::BadField("length"));
    }
    buf.truncate(len);
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_round_trip_untagged() {
        let f = EthernetFrame {
            dst: MacAddr([1; 6]),
            src: MacAddr([2; 6]),
            vlan: None,
            ethertype: 0x0800,
            payload: vec![9; 50],
        };
        assert_eq!(EthernetFrame::parse(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn ethernet_round_trip_tagged() {
        let f = EthernetFrame {
            dst: MacAddr([0xFF; 6]),
            src: MacAddr([0x11; 6]),
            vlan: Some(VlanTag { pcp: 7, vid: 4095 }),
            ethertype: 0x86DD,
            payload: vec![1, 2, 3],
        };
        let bytes = f.to_bytes();
        assert_eq!(u16::from_be_bytes([bytes[12], bytes[13]]), 0x8100);
        assert_eq!(EthernetFrame::parse(&bytes).unwrap(), f);
    }

    #[test]
    fn ethernet_truncated() {
        assert_eq!(EthernetFrame::parse(&[0; 13]), Err(CodecError::Truncated));
        let mut tagged = vec![0u8; 14];
        tagged[12] = 0x81;
        tagged[13] = 0x00;
        assert_eq!(EthernetFrame::parse(&tagged), Err(CodecError::Truncated));
    }

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr([0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01]).to_string(),
            "de:ad:be:ef:00:01"
        );
    }

    #[test]
    fn ipv4_round_trip_and_checksum() {
        let p = Ipv4Packet {
            src: [10, 0, 0, 1],
            dst: [192, 168, 1, 254],
            protocol: 17,
            ttl: 64,
            payload: b"payload".to_vec(),
        };
        let bytes = p.to_bytes();
        assert_eq!(internet_checksum(&bytes[..20]), 0, "checksum must verify");
        assert_eq!(Ipv4Packet::parse(&bytes).unwrap(), p);
    }

    #[test]
    fn ipv4_detects_corruption() {
        let p = Ipv4Packet {
            src: [1, 2, 3, 4],
            dst: [5, 6, 7, 8],
            protocol: 6,
            ttl: 32,
            payload: vec![],
        };
        let mut bytes = p.to_bytes();
        bytes[15] ^= 0x40; // flip a source-address bit
        assert_eq!(Ipv4Packet::parse(&bytes), Err(CodecError::BadChecksum));
        assert_eq!(Ipv4Packet::parse(&[0x45; 19]), Err(CodecError::Truncated));
        let mut v6 = p.to_bytes();
        v6[0] = 0x65;
        assert!(matches!(
            Ipv4Packet::parse(&v6),
            Err(CodecError::BadField("version"))
        ));
    }

    #[test]
    fn rfc1071_known_vector() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn atm_cell_round_trip() {
        let cell = AtmCell {
            vpi: 0xAB,
            vci: 0xCDE,
            pti: 0b101,
            payload: [7; 48],
        };
        let parsed = AtmCell::parse(&cell.to_bytes()).unwrap();
        assert_eq!(parsed, cell);
        assert!(parsed.is_last());
        assert_eq!(AtmCell::parse(&[0; 52]), Err(CodecError::Truncated));
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn aal5_round_trip() {
        for len in [1usize, 39, 40, 41, 48, 96, 1500] {
            let pdu: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let cells = aal5_encode(1, 100, &pdu);
            assert_eq!(cells.len(), (len + 8).div_ceil(48), "len {len}");
            assert!(cells.last().unwrap().is_last());
            assert_eq!(aal5_decode(&cells).unwrap(), pdu, "len {len}");
        }
    }

    #[test]
    fn aal5_detects_corruption() {
        let mut cells = aal5_encode(0, 5, b"hello world");
        cells[0].payload[0] ^= 1;
        assert_eq!(aal5_decode(&cells), Err(CodecError::BadChecksum));
        assert!(aal5_decode(&[]).is_err());
        // Missing end-of-frame marker.
        let mut cells = aal5_encode(0, 5, b"x");
        cells.last_mut().unwrap().pti = 0;
        assert!(matches!(
            aal5_decode(&cells),
            Err(CodecError::BadField("frame delimiting"))
        ));
    }

    #[test]
    fn codec_error_display() {
        assert_eq!(CodecError::Truncated.to_string(), "buffer too short");
        assert_eq!(CodecError::BadChecksum.to_string(), "checksum mismatch");
        assert_eq!(CodecError::BadField("x").to_string(), "invalid field: x");
    }
}
