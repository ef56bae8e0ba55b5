//! Binary model images.
//!
//! Deployed systems keep a persisted copy of the model in flash/eMMC; the
//! storage-reload restoration baseline deserializes that image. This
//! module provides the image format: a small, versioned, self-describing
//! binary encoding of a [`Network`]'s architecture and weights, written
//! from scratch (no external serializer) so the byte volume charged by
//! the platform model corresponds to real bytes.
//!
//! Format (little-endian throughout):
//!
//! ```text
//! magic "RPRN" | u16 version | name (u32 len + utf8) | u32 layer count
//! per layer: u8 tag | tag-specific payload
//! trailing u64 FNV-1a checksum over everything before it
//! ```

use crate::layer::{
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, Layer, LeakyRelu, Linear, MaxPool2d, Param,
    Relu,
};
use crate::{Network, NnError, Result};
use reprune_tensor::rng::Prng;
use reprune_tensor::Tensor;

const MAGIC: &[u8; 4] = b"RPRN";
const VERSION: u16 = 1;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(4096),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn tensor(&mut self, t: &Tensor) {
        self.u32(t.dims().len() as u32);
        for &d in t.dims() {
            self.u32(d as u32);
        }
        for &x in t.data() {
            self.f32(x);
        }
    }
}

struct Reader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn new(buf: &'b [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(NnError::bad_architecture("model image truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| NnError::bad_architecture("model image has invalid utf-8 name"))
    }

    fn tensor(&mut self) -> Result<Tensor> {
        let rank = self.u32()? as usize;
        if rank > 8 {
            return Err(NnError::bad_architecture("model image tensor rank > 8"));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.u32()? as usize);
        }
        // Dims are untrusted: their product must not overflow, and the
        // volume is bounded by the bytes left before anything is
        // allocated for it.
        let volume = dims
            .iter()
            .try_fold(1usize, |v, &d| v.checked_mul(d))
            .filter(|&v| v <= (self.buf.len() - self.pos) / 4)
            .ok_or_else(|| NnError::bad_architecture("model image tensor exceeds the image"))?;
        let mut data = Vec::with_capacity(volume);
        for _ in 0..volume {
            data.push(self.f32()?);
        }
        Ok(Tensor::from_vec(data, &dims)?)
    }
}

mod tag {
    pub const LINEAR: u8 = 1;
    pub const CONV2D: u8 = 2;
    pub const BATCHNORM2D: u8 = 3;
    pub const RELU: u8 = 4;
    pub const LEAKY_RELU: u8 = 5;
    pub const MAXPOOL2D: u8 = 6;
    pub const AVGPOOL2D: u8 = 7;
    pub const FLATTEN: u8 = 8;
    pub const DROPOUT: u8 = 9;
}

/// Serializes a network into a persisted model image.
pub fn to_bytes(net: &Network) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u16(VERSION);
    w.str(net.name());
    w.u32(net.num_layers() as u32);
    for layer in net.layers() {
        match layer {
            Layer::Linear(l) => {
                w.u8(tag::LINEAR);
                w.tensor(&l.weight.value);
                w.tensor(&l.bias.value);
            }
            Layer::Conv2d(l) => {
                w.u8(tag::CONV2D);
                w.u32(l.kernel as u32);
                w.u32(l.stride as u32);
                w.u32(l.padding as u32);
                w.tensor(&l.weight.value);
                w.tensor(&l.bias.value);
            }
            Layer::BatchNorm2d(l) => {
                w.u8(tag::BATCHNORM2D);
                w.f32(l.ema);
                w.f32(l.eps);
                w.tensor(&l.gamma.value);
                w.tensor(&l.beta.value);
                w.tensor(&l.running_mean);
                w.tensor(&l.running_var);
            }
            Layer::Relu(_) => w.u8(tag::RELU),
            Layer::LeakyRelu(l) => {
                w.u8(tag::LEAKY_RELU);
                w.f32(l.alpha);
            }
            Layer::MaxPool2d(l) => {
                w.u8(tag::MAXPOOL2D);
                w.u32(l.kernel as u32);
                w.u32(l.stride as u32);
            }
            Layer::AvgPool2d(l) => {
                w.u8(tag::AVGPOOL2D);
                w.u32(l.kernel as u32);
                w.u32(l.stride as u32);
            }
            Layer::Flatten(_) => w.u8(tag::FLATTEN),
            Layer::Dropout(l) => {
                w.u8(tag::DROPOUT);
                w.f32(l.p);
                w.u64(l.seed);
            }
        }
    }
    let checksum = fnv1a(&w.buf);
    w.u64(checksum);
    w.buf
}

/// Deserializes a model image produced by [`to_bytes`].
///
/// # Errors
///
/// Returns [`NnError::BadArchitecture`] for a truncated, corrupted, or
/// version-incompatible image (the trailing checksum is verified).
pub fn from_bytes(bytes: &[u8]) -> Result<Network> {
    if bytes.len() < MAGIC.len() + 2 + 8 {
        return Err(NnError::bad_architecture("model image too short"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("len 8"));
    if fnv1a(body) != stored {
        return Err(NnError::bad_architecture("model image checksum mismatch"));
    }
    let mut r = Reader::new(body);
    if r.take(4)? != MAGIC {
        return Err(NnError::bad_architecture("model image missing magic"));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(NnError::bad_architecture(format!(
            "model image version {version} unsupported (expected {VERSION})"
        )));
    }
    let name = r.str()?;
    let count = r.u32()? as usize;
    if count > 10_000 {
        return Err(NnError::bad_architecture("model image layer count absurd"));
    }
    let mut layers = Vec::with_capacity(count);
    let mut scratch_rng = Prng::new(0);
    for _ in 0..count {
        let layer = match r.u8()? {
            tag::LINEAR => {
                let weight = r.tensor()?;
                let bias = r.tensor()?;
                if weight.dims().len() != 2 || bias.dims().len() != 1
                    || weight.dims()[0] != bias.dims()[0]
                {
                    return Err(NnError::bad_architecture("linear image shapes inconsistent"));
                }
                let mut l = Linear::new(weight.dims()[1], weight.dims()[0], &mut scratch_rng);
                l.weight = Param::new(weight);
                l.bias = Param::new(bias);
                Layer::Linear(l)
            }
            tag::CONV2D => {
                let kernel = r.u32()? as usize;
                let stride = r.u32()? as usize;
                let padding = r.u32()? as usize;
                let weight = r.tensor()?;
                let bias = r.tensor()?;
                if weight.dims().len() != 4
                    || bias.dims().len() != 1
                    || weight.dims()[0] != bias.dims()[0]
                    || weight.dims()[2] != kernel
                    || weight.dims()[3] != kernel
                {
                    return Err(NnError::bad_architecture("conv image shapes inconsistent"));
                }
                let mut l = Conv2d::new(
                    weight.dims()[1],
                    weight.dims()[0],
                    kernel,
                    stride,
                    padding,
                    &mut scratch_rng,
                );
                l.weight = Param::new(weight);
                l.bias = Param::new(bias);
                Layer::Conv2d(l)
            }
            tag::BATCHNORM2D => {
                let ema = r.f32()?;
                let eps = r.f32()?;
                let gamma = r.tensor()?;
                let beta = r.tensor()?;
                let running_mean = r.tensor()?;
                let running_var = r.tensor()?;
                let c = gamma.len();
                if [beta.len(), running_mean.len(), running_var.len()] != [c, c, c] {
                    return Err(NnError::bad_architecture("batchnorm image shapes inconsistent"));
                }
                let mut l = BatchNorm2d::new(c);
                l.ema = ema;
                l.eps = eps;
                l.gamma = Param::new(gamma);
                l.beta = Param::new(beta);
                l.running_mean = running_mean;
                l.running_var = running_var;
                Layer::BatchNorm2d(l)
            }
            tag::RELU => Layer::Relu(Relu::new()),
            tag::LEAKY_RELU => Layer::LeakyRelu(LeakyRelu::new(r.f32()?)),
            tag::MAXPOOL2D => {
                let kernel = r.u32()? as usize;
                let stride = r.u32()? as usize;
                Layer::MaxPool2d(MaxPool2d::new(kernel, stride))
            }
            tag::AVGPOOL2D => {
                let kernel = r.u32()? as usize;
                let stride = r.u32()? as usize;
                Layer::AvgPool2d(AvgPool2d::new(kernel, stride))
            }
            tag::FLATTEN => Layer::Flatten(Flatten::new()),
            tag::DROPOUT => {
                let p = r.f32()?;
                let seed = r.u64()?;
                Layer::Dropout(Dropout::new(p, seed))
            }
            other => {
                return Err(NnError::bad_architecture(format!(
                    "model image has unknown layer tag {other}"
                )))
            }
        };
        layers.push(layer);
    }
    Ok(Network::new(name, layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn roundtrip_perception_cnn() {
        let net = models::default_perception_cnn(7).unwrap();
        let bytes = to_bytes(&net);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.name(), net.name());
        assert_eq!(back.num_layers(), net.num_layers());
        assert_eq!(back.num_parameters(), net.num_parameters());
        // Weights bit-exact.
        for meta in net.prunable_layers() {
            assert_eq!(net.weight(meta.id).unwrap(), back.weight(meta.id).unwrap());
        }
    }

    #[test]
    fn roundtrip_preserves_inference() {
        use reprune_tensor::Tensor;
        let mut net = models::default_perception_cnn(8).unwrap();
        let mut back = from_bytes(&to_bytes(&net)).unwrap();
        let x = Tensor::linspace(-1.0, 1.0, 256).reshape(&[1, 16, 16]).unwrap();
        assert_eq!(net.forward(&x).unwrap(), back.forward(&x).unwrap());
    }

    #[test]
    fn roundtrip_mlp_and_misc_layers() {
        use crate::layer::{AvgPool2d, BatchNorm2d, Layer, LeakyRelu};
        let mut layers = models::control_mlp(4, &[8], 2, 1).unwrap();
        let _ = &mut layers;
        let net = Network::new(
            "misc",
            vec![
                Layer::BatchNorm2d(BatchNorm2d::new(3)),
                Layer::LeakyRelu(LeakyRelu::new(0.2)),
                Layer::AvgPool2d(AvgPool2d::new(2, 2)),
            ],
        );
        let back = from_bytes(&to_bytes(&net)).unwrap();
        assert_eq!(back.num_layers(), 3);
        assert_eq!(back.layer(crate::LayerId(1)).unwrap().kind_name(), "LeakyRelu");
    }

    #[test]
    fn detects_corruption() {
        let net = models::control_mlp(3, &[4], 2, 2).unwrap();
        let mut bytes = to_bytes(&net);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            from_bytes(&bytes),
            Err(NnError::BadArchitecture { .. })
        ));
    }

    #[test]
    fn detects_truncation() {
        let net = models::control_mlp(3, &[4], 2, 3).unwrap();
        let bytes = to_bytes(&net);
        assert!(from_bytes(&bytes[..bytes.len() - 9]).is_err());
        assert!(from_bytes(&[]).is_err());
        assert!(from_bytes(b"RPRN").is_err());
    }

    #[test]
    fn rejects_tensor_dims_whose_volume_overflows() {
        // A checksum-valid image whose one tensor claims dims
        // [u32::MAX; 3]: the volume overflows usize.
        let mut w = Writer::new();
        w.buf.extend_from_slice(MAGIC);
        w.u16(VERSION);
        w.str("hostile");
        w.u32(1);
        w.u8(tag::LINEAR);
        w.u32(3);
        for _ in 0..3 {
            w.u32(u32::MAX);
        }
        let checksum = fnv1a(&w.buf);
        w.u64(checksum);
        assert!(matches!(
            from_bytes(&w.buf),
            Err(NnError::BadArchitecture { .. })
        ));
    }

    #[test]
    fn detects_wrong_magic_and_version() {
        let net = models::control_mlp(3, &[4], 2, 4).unwrap();
        let mut bytes = to_bytes(&net);
        bytes[0] = b'X';
        // Fix the checksum so the magic check is what fires.
        let n = bytes.len();
        let c = fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&c.to_le_bytes());
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn image_size_tracks_parameters() {
        let net = models::default_perception_cnn(9).unwrap();
        let bytes = to_bytes(&net);
        // Must be at least 4 bytes per parameter plus bounded overhead.
        assert!(bytes.len() >= net.num_parameters() * 4);
        assert!(bytes.len() < net.num_parameters() * 4 + 4096);
    }
}
