//! A real miniature GPT with exact manual backward over a flat parameter
//! store.
//!
//! All parameters live in one contiguous `Vec<f32>` with named views — the
//! same flattened layout DeepSpeed uses, which is what makes bucket-based
//! offloading (§4.3) and in-place rollback (§4.4) natural to express: an
//! optimizer bucket is literally a sub-range of the flat vector.
//!
//! The model is small (tests use hidden sizes of 16–64) but *exact*: its
//! gradients are verified against finite differences, and the STV engine
//! uses it to demonstrate bit-identical convergence with and without
//! speculation.

use std::collections::HashMap;

use tensorlite::ops::{
    cross_entropy, elementwise_pool, gelu, gelu_backward, layer_norm, layer_norm_backward, linear,
    linear_backward, softmax_rows, softmax_rows_backward,
};
use tensorlite::{KernelFamily, Pool, Tensor, TensorError, XorShiftRng};

/// Configuration of the miniature GPT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GptConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Attention heads (must divide `hidden`).
    pub heads: usize,
    /// Maximum sequence length (learned positions).
    pub max_seq: usize,
}

impl GptConfig {
    /// A tiny configuration for tests: vocab 64, hidden 32, 2 layers, 2 heads.
    pub fn tiny() -> Self {
        GptConfig {
            vocab: 64,
            hidden: 32,
            layers: 2,
            heads: 2,
            max_seq: 32,
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

/// A named view into the flat parameter vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamView {
    /// Hierarchical name, e.g. `"block3.attn.wqkv"`.
    pub name: String,
    /// Offset into the flat vector.
    pub offset: usize,
    /// Element count.
    pub len: usize,
    /// Logical shape.
    pub shape: Vec<usize>,
}

/// Per-layer forward cache (inputs and statistics needed by backward).
#[derive(Debug)]
struct BlockCache {
    x_in: Tensor, // block input [T, h]
    ln1_mean: Vec<f32>,
    ln1_inv_std: Vec<f32>,
    ln1_out: Tensor,         // [T, h]
    qkv: Tensor,             // [T, 3h]
    head_probs: Vec<Tensor>, // per head [T, T]
    attn_concat: Tensor,     // [T, h]
    x_mid: Tensor,           // after attention residual [T, h]
    ln2_mean: Vec<f32>,
    ln2_inv_std: Vec<f32>,
    ln2_out: Tensor, // [T, h]
    mlp_pre: Tensor, // [T, 4h] pre-GELU
    mlp_act: Tensor, // [T, 4h] post-GELU
}

/// Full forward cache for one sequence.
#[derive(Debug)]
pub struct ForwardCache {
    tokens: Vec<usize>,
    blocks: Vec<BlockCache>,
    lnf_mean: Vec<f32>,
    lnf_inv_std: Vec<f32>,
    lnf_in: Tensor,  // input to final LN [T, h]
    lnf_out: Tensor, // [T, h]
    dlogits: Tensor, // [T, vocab]
    /// Mean cross-entropy loss over the sequence.
    pub loss: f32,
}

/// The miniature GPT model.
#[derive(Debug, Clone)]
pub struct GptModel {
    weights: Weights,
    grads: Vec<f32>,
}

/// The part of the model that forward and backward only read: shape,
/// parameters and their named views. It is kept apart from the gradient
/// vector so a batch's sequences can share it across threads while each
/// writes its gradients into its own [`GradSink`].
#[derive(Debug, Clone)]
struct Weights {
    cfg: GptConfig,
    params: Vec<f32>,
    views: Vec<ParamView>,
    index: HashMap<String, usize>,
}

/// Where backward puts each gradient contribution, in call order.
enum GradSink<'g> {
    /// Adds every contribution straight into the flat gradient vector.
    Direct(&'g mut [f32]),
    /// Keeps every contribution with its flat offset, to be added in
    /// order once the batch has joined (see
    /// [`GptModel::batch_forward_backward`]).
    Log(Vec<(usize, Vec<f32>)>),
}

impl GradSink<'_> {
    fn add(&mut self, view: &ParamView, g: Vec<f32>) {
        debug_assert_eq!(
            view.len,
            g.len(),
            "gradient size mismatch for {}",
            view.name
        );
        match self {
            GradSink::Direct(grads) => {
                add_into(&mut grads[view.offset..view.offset + view.len], &g)
            }
            GradSink::Log(log) => log.push((view.offset, g)),
        }
    }
}

fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// What one contiguous chunk of a batch produced on its thread.
#[derive(Default)]
struct ChunkOut {
    losses: Vec<f32>,
    log: Vec<(usize, Vec<f32>)>,
    error: Option<TensorError>,
}

/// Splits `batch` into `n` contiguous chunks whose lengths differ by at
/// most one, in batch order.
fn contiguous_chunks<T>(batch: &[T], n: usize) -> impl Iterator<Item = &[T]> {
    let (base, extra) = (batch.len() / n, batch.len() % n);
    (0..n).scan(0, move |start, i| {
        let len = base + usize::from(i < extra);
        let chunk = &batch[*start..*start + len];
        *start += len;
        Some(chunk)
    })
}

impl GptModel {
    /// Creates a model with GPT-2-style initialization (normal, std 0.02;
    /// residual projections scaled by `1/sqrt(2·layers)`).
    ///
    /// # Panics
    /// Panics if `heads` does not divide `hidden`.
    pub fn new(cfg: GptConfig, seed: u64) -> Self {
        assert_eq!(
            cfg.hidden % cfg.heads,
            0,
            "heads must divide hidden dimension"
        );
        let mut model = GptModel {
            weights: Weights {
                cfg: cfg.clone(),
                params: Vec::new(),
                views: Vec::new(),
                index: HashMap::new(),
            },
            grads: Vec::new(),
        };
        let mut rng = XorShiftRng::new(seed);
        let h = cfg.hidden;
        let std = 0.02f32;
        let resid_std = std / ((2 * cfg.layers) as f32).sqrt();

        model.register(
            "wte",
            &[cfg.vocab, h],
            |r| r.normal_scaled(0.0, std),
            &mut rng,
        );
        model.register(
            "wpe",
            &[cfg.max_seq, h],
            |r| r.normal_scaled(0.0, std),
            &mut rng,
        );
        for l in 0..cfg.layers {
            let p = |s: &str| format!("block{l}.{s}");
            model.register(&p("ln1.gamma"), &[h], |_| 1.0, &mut rng);
            model.register(&p("ln1.beta"), &[h], |_| 0.0, &mut rng);
            model.register(
                &p("attn.wqkv"),
                &[h, 3 * h],
                |r| r.normal_scaled(0.0, std),
                &mut rng,
            );
            model.register(&p("attn.bqkv"), &[3 * h], |_| 0.0, &mut rng);
            model.register(
                &p("attn.wo"),
                &[h, h],
                |r| r.normal_scaled(0.0, resid_std),
                &mut rng,
            );
            model.register(&p("attn.bo"), &[h], |_| 0.0, &mut rng);
            model.register(&p("ln2.gamma"), &[h], |_| 1.0, &mut rng);
            model.register(&p("ln2.beta"), &[h], |_| 0.0, &mut rng);
            model.register(
                &p("mlp.w1"),
                &[h, 4 * h],
                |r| r.normal_scaled(0.0, std),
                &mut rng,
            );
            model.register(&p("mlp.b1"), &[4 * h], |_| 0.0, &mut rng);
            model.register(
                &p("mlp.w2"),
                &[4 * h, h],
                |r| r.normal_scaled(0.0, resid_std),
                &mut rng,
            );
            model.register(&p("mlp.b2"), &[h], |_| 0.0, &mut rng);
        }
        model.register("lnf.gamma", &[h], |_| 1.0, &mut rng);
        model.register("lnf.beta", &[h], |_| 0.0, &mut rng);
        model
    }

    fn register(
        &mut self,
        name: &str,
        shape: &[usize],
        init: impl Fn(&mut XorShiftRng) -> f32,
        rng: &mut XorShiftRng,
    ) {
        let len: usize = shape.iter().product();
        let w = &mut self.weights;
        let offset = w.params.len();
        w.params.extend((0..len).map(|_| init(rng)));
        self.grads.extend(std::iter::repeat_n(0.0, len));
        w.index.insert(name.to_string(), w.views.len());
        w.views.push(ParamView {
            name: name.to_string(),
            offset,
            len,
            shape: shape.to_vec(),
        });
    }

    /// The configuration.
    pub fn config(&self) -> &GptConfig {
        &self.weights.cfg
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weights.params.len()
    }

    /// Flat read-only parameter vector.
    pub fn params(&self) -> &[f32] {
        &self.weights.params
    }

    /// Flat mutable parameter vector (optimizers write here).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.weights.params
    }

    /// Flat read-only gradient vector.
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.grads.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Named parameter views in registration (= flat) order.
    pub fn views(&self) -> &[ParamView] {
        &self.weights.views
    }

    /// Looks up a view by name.
    pub fn view(&self, name: &str) -> Option<&ParamView> {
        self.weights
            .index
            .get(name)
            .map(|&i| &self.weights.views[i])
    }
}

impl Weights {
    fn tensor_of(&self, name: &str) -> Tensor {
        let v = self.view_named(name);
        Tensor::from_vec(self.params[v.offset..v.offset + v.len].to_vec(), &v.shape)
            .expect("view shape matches storage")
    }

    fn slice_of(&self, name: &str) -> &[f32] {
        let v = self.view_named(name);
        &self.params[v.offset..v.offset + v.len]
    }

    fn view_named(&self, name: &str) -> &ParamView {
        &self.views[self.index[name]]
    }

    fn forward(&self, tokens: &[usize], targets: &[usize]) -> Result<ForwardCache, TensorError> {
        let t = tokens.len();
        let h = self.cfg.hidden;
        if t == 0 {
            return Err(TensorError::Empty { what: "sequence" });
        }
        if t > self.cfg.max_seq {
            return Err(TensorError::IndexOutOfBounds {
                index: t,
                len: self.cfg.max_seq,
            });
        }
        // Embedding: wte[token] + wpe[pos].
        let wte = self.slice_of("wte");
        let wpe = self.slice_of("wpe");
        let mut emb = vec![0.0f32; t * h];
        for (i, &tok) in tokens.iter().enumerate() {
            if tok >= self.cfg.vocab {
                return Err(TensorError::IndexOutOfBounds {
                    index: tok,
                    len: self.cfg.vocab,
                });
            }
            for j in 0..h {
                emb[i * h + j] = wte[tok * h + j] + wpe[i * h + j];
            }
        }
        let mut x = Tensor::from_vec(emb, &[t, h])?;
        let mut blocks = Vec::with_capacity(self.cfg.layers);
        for l in 0..self.cfg.layers {
            let (cache, out) = self.block_forward(l, &x)?;
            blocks.push(cache);
            x = out;
        }

        let lnf_in = x;
        let (lnf_out, lnf_mean, lnf_inv_std) = layer_norm(
            &lnf_in,
            self.slice_of("lnf.gamma"),
            self.slice_of("lnf.beta"),
            1e-5,
        )?;
        // Tied LM head: logits = lnf_out @ wte^T (fused, no transpose).
        let logits = lnf_out.matmul_bt(&self.tensor_of("wte"))?;
        let (loss, dlogits) = cross_entropy(&logits, targets)?;

        Ok(ForwardCache {
            tokens: tokens.to_vec(),
            blocks,
            lnf_mean,
            lnf_inv_std,
            lnf_in,
            lnf_out,
            dlogits,
            loss,
        })
    }

    fn block_forward(&self, l: usize, x: &Tensor) -> Result<(BlockCache, Tensor), TensorError> {
        let p = |s: &str| format!("block{l}.{s}");
        let t = x.shape()[0];
        let h = self.cfg.hidden;
        let heads = self.cfg.heads;
        let d = self.cfg.head_dim();
        let scale = 1.0 / (d as f32).sqrt();

        let (ln1_out, ln1_mean, ln1_inv_std) = layer_norm(
            x,
            self.slice_of(&p("ln1.gamma")),
            self.slice_of(&p("ln1.beta")),
            1e-5,
        )?;
        let qkv = linear(
            &ln1_out,
            &self.tensor_of(&p("attn.wqkv")),
            self.slice_of(&p("attn.bqkv")),
        )?;

        // Per-head causal attention. Heads are independent, so they run in
        // parallel on the worker pool; the merge below writes each head's
        // disjoint column stripe in head order, keeping the result
        // bit-identical to the serial loop.
        let pool = Pool::current().limit_for_family(KernelFamily::Attention, heads * t * t * 2 * d);
        let head_results: Vec<Result<(Tensor, Tensor), TensorError>> = pool.run(heads, |head| {
            let (q, k, v) = split_qkv(&qkv, head, d, h);
            let mut scores = q.matmul_bt(&k)?.scale(scale);
            apply_causal_mask(&mut scores);
            let probs = softmax_rows(&scores)?;
            let out = probs.matmul(&v)?; // [T, d]
            Ok((probs, out))
        });
        let mut head_probs = Vec::with_capacity(heads);
        let mut concat = vec![0.0f32; t * h];
        for (head, result) in head_results.into_iter().enumerate() {
            let (probs, out) = result?;
            for i in 0..t {
                concat[i * h + head * d..i * h + (head + 1) * d]
                    .copy_from_slice(&out.data()[i * d..(i + 1) * d]);
            }
            head_probs.push(probs);
        }
        let attn_concat = Tensor::from_vec(concat, &[t, h])?;
        let attn_out = linear(
            &attn_concat,
            &self.tensor_of(&p("attn.wo")),
            self.slice_of(&p("attn.bo")),
        )?;
        let x_mid = x.add(&attn_out)?;

        let (ln2_out, ln2_mean, ln2_inv_std) = layer_norm(
            &x_mid,
            self.slice_of(&p("ln2.gamma")),
            self.slice_of(&p("ln2.beta")),
            1e-5,
        )?;
        let mlp_pre = linear(
            &ln2_out,
            &self.tensor_of(&p("mlp.w1")),
            self.slice_of(&p("mlp.b1")),
        )?;
        let mlp_act = gelu(&mlp_pre);
        let mlp_out = linear(
            &mlp_act,
            &self.tensor_of(&p("mlp.w2")),
            self.slice_of(&p("mlp.b2")),
        )?;
        let out = x_mid.add(&mlp_out)?;

        Ok((
            BlockCache {
                x_in: x.clone(),
                ln1_mean,
                ln1_inv_std,
                ln1_out,
                qkv,
                head_probs,
                attn_concat,
                x_mid,
                ln2_mean,
                ln2_inv_std,
                ln2_out,
                mlp_pre,
                mlp_act,
            },
            out,
        ))
    }

    /// Backward over `cache`, handing every gradient contribution to
    /// `sink` in a fixed call order.
    fn backward(&self, cache: &ForwardCache, sink: &mut GradSink<'_>) -> Result<(), TensorError> {
        let h = self.cfg.hidden;

        // LM head (tied): logits = lnf_out @ wte^T
        // d(lnf_out) = dlogits @ wte ; d(wte) += dlogits^T @ lnf_out
        let wte = self.tensor_of("wte");
        let d_lnf_out = cache.dlogits.matmul(&wte)?;
        let d_wte_head = cache.dlogits.matmul_at(&cache.lnf_out)?;
        sink.add(self.view_named("wte"), d_wte_head.into_vec());

        let gamma_f = self.slice_of("lnf.gamma").to_vec();
        let (mut dx, dgamma, dbeta) = layer_norm_backward(
            &cache.lnf_in,
            &d_lnf_out,
            &gamma_f,
            &cache.lnf_mean,
            &cache.lnf_inv_std,
        )?;
        sink.add(self.view_named("lnf.gamma"), dgamma);
        sink.add(self.view_named("lnf.beta"), dbeta);

        for l in (0..self.cfg.layers).rev() {
            dx = self.block_backward(l, &cache.blocks[l], &dx, sink)?;
        }

        // Embedding backward: dx over wte rows and wpe rows.
        let mut d_wte = vec![0.0f32; self.cfg.vocab * h];
        let mut d_wpe = vec![0.0f32; self.cfg.max_seq * h];
        for (i, &tok) in cache.tokens.iter().enumerate() {
            for j in 0..h {
                let g = dx.data()[i * h + j];
                d_wte[tok * h + j] += g;
                d_wpe[i * h + j] += g;
            }
        }
        sink.add(self.view_named("wte"), d_wte);
        sink.add(self.view_named("wpe"), d_wpe);
        Ok(())
    }

    fn block_backward(
        &self,
        l: usize,
        cache: &BlockCache,
        dout: &Tensor,
        sink: &mut GradSink<'_>,
    ) -> Result<Tensor, TensorError> {
        let p = |s: &str| format!("block{l}.{s}");
        let t = cache.x_in.shape()[0];
        let h = self.cfg.hidden;
        let heads = self.cfg.heads;
        let d = self.cfg.head_dim();
        let scale = 1.0 / (d as f32).sqrt();

        // out = x_mid + mlp_out
        let d_mlp_out = dout.clone();
        // MLP backward.
        let w2 = self.tensor_of(&p("mlp.w2"));
        let (d_mlp_act, d_w2, d_b2) = linear_backward(&cache.mlp_act, &w2, &d_mlp_out)?;
        sink.add(self.view_named(&p("mlp.w2")), d_w2.into_vec());
        sink.add(self.view_named(&p("mlp.b2")), d_b2);
        let d_mlp_pre = gelu_backward(&cache.mlp_pre, &d_mlp_act)?;
        let w1 = self.tensor_of(&p("mlp.w1"));
        let (d_ln2_out, d_w1, d_b1) = linear_backward(&cache.ln2_out, &w1, &d_mlp_pre)?;
        sink.add(self.view_named(&p("mlp.w1")), d_w1.into_vec());
        sink.add(self.view_named(&p("mlp.b1")), d_b1);

        let gamma2 = self.slice_of(&p("ln2.gamma")).to_vec();
        let (d_x_mid_ln, d_gamma2, d_beta2) = layer_norm_backward(
            &cache.x_mid,
            &d_ln2_out,
            &gamma2,
            &cache.ln2_mean,
            &cache.ln2_inv_std,
        )?;
        sink.add(self.view_named(&p("ln2.gamma")), d_gamma2);
        sink.add(self.view_named(&p("ln2.beta")), d_beta2);

        // x_mid receives gradient from both the residual skip (dout) and LN2.
        let d_x_mid = dout.add(&d_x_mid_ln)?;

        // x_mid = x_in + attn_out
        let d_attn_out = d_x_mid.clone();
        let wo = self.tensor_of(&p("attn.wo"));
        let (d_attn_concat, d_wo, d_bo) = linear_backward(&cache.attn_concat, &wo, &d_attn_out)?;
        sink.add(self.view_named(&p("attn.wo")), d_wo.into_vec());
        sink.add(self.view_named(&p("attn.bo")), d_bo);

        // Attention backward per head — heads are independent, so they run
        // in parallel on the worker pool; gradients are merged serially in
        // head order into disjoint column stripes of d_qkv.
        let mut d_qkv = Tensor::zeros(&[t, 3 * h]);
        let pool = Pool::current().limit_for_family(KernelFamily::Attention, heads * t * t * 6 * d);
        let head_grads: Vec<Result<(Tensor, Tensor, Tensor), TensorError>> =
            pool.run(heads, |head| {
                let (q, k, v) = split_qkv(&cache.qkv, head, d, h);
                let probs = &cache.head_probs[head];
                // d_out_head from d_attn_concat columns.
                let mut d_out = vec![0.0f32; t * d];
                for i in 0..t {
                    d_out[i * d..(i + 1) * d].copy_from_slice(
                        &d_attn_concat.data()[i * h + head * d..i * h + (head + 1) * d],
                    );
                }
                let d_out = Tensor::from_vec(d_out, &[t, d])?;
                // out = probs @ v
                let d_probs = d_out.matmul_bt(&v)?;
                let d_v = probs.matmul_at(&d_out)?;
                // probs = softmax(scores)
                let d_scores = softmax_rows_backward(probs, &d_probs)?.scale(scale);
                // scores(pre-scale) = q @ k^T (mask entries have zero
                // gradient because their probs are exactly zero).
                let d_q = d_scores.matmul(&k)?;
                let d_k = d_scores.matmul_at(&q)?;
                Ok((d_q, d_k, d_v))
            });
        for (head, grads) in head_grads.into_iter().enumerate() {
            let (d_q, d_k, d_v) = grads?;
            merge_qkv_grad(&mut d_qkv, &d_q, &d_k, &d_v, head, d, h);
        }

        let wqkv = self.tensor_of(&p("attn.wqkv"));
        let (d_ln1_out, d_wqkv, d_bqkv) = linear_backward(&cache.ln1_out, &wqkv, &d_qkv)?;
        sink.add(self.view_named(&p("attn.wqkv")), d_wqkv.into_vec());
        sink.add(self.view_named(&p("attn.bqkv")), d_bqkv);

        let gamma1 = self.slice_of(&p("ln1.gamma")).to_vec();
        let (d_x_ln, d_gamma1, d_beta1) = layer_norm_backward(
            &cache.x_in,
            &d_ln1_out,
            &gamma1,
            &cache.ln1_mean,
            &cache.ln1_inv_std,
        )?;
        sink.add(self.view_named(&p("ln1.gamma")), d_gamma1);
        sink.add(self.view_named(&p("ln1.beta")), d_beta1);

        d_x_mid.add(&d_x_ln)
    }

    /// Forward + backward on one sequence into `sink`, returning the loss.
    fn forward_backward(
        &self,
        tokens: &[usize],
        targets: &[usize],
        sink: &mut GradSink<'_>,
    ) -> Result<f32, TensorError> {
        let cache = self.forward(tokens, targets)?;
        self.backward(&cache, sink)?;
        Ok(cache.loss)
    }
}

impl GptModel {
    /// Runs the forward pass on one sequence, returning the cache (which
    /// includes the mean cross-entropy loss against `targets`).
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty sequence and
    /// [`TensorError::IndexOutOfBounds`] for a sequence longer than
    /// `max_seq` or a token id outside the vocabulary.
    pub fn forward(
        &self,
        tokens: &[usize],
        targets: &[usize],
    ) -> Result<ForwardCache, TensorError> {
        self.weights.forward(tokens, targets)
    }

    /// Runs the backward pass, accumulating gradients into the flat gradient
    /// vector (call [`GptModel::zero_grads`] between iterations).
    ///
    /// # Errors
    /// Returns [`TensorError`] on internal shape violations (a bug, not a
    /// user error, if `cache` came from this model).
    pub fn backward(&mut self, cache: &ForwardCache) -> Result<(), TensorError> {
        self.weights
            .backward(cache, &mut GradSink::Direct(&mut self.grads))
    }

    /// Convenience: forward + backward on one sequence, returning the loss —
    /// [`GptModel::batch_forward_backward`] on a batch of one. Gradients
    /// accumulate; callers zero them between optimizer steps.
    ///
    /// # Errors
    /// Propagates [`TensorError`] from [`GptModel::forward`].
    pub fn forward_backward(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
    ) -> Result<f32, TensorError> {
        Ok(self.batch_forward_backward(&[(tokens, targets)])?[0])
    }

    /// Forward + backward over every `(tokens, targets)` sequence of
    /// `batch`, accumulating gradients and returning the losses in batch
    /// order. Gradients and losses are bit-identical to calling
    /// [`GptModel::forward_backward`] on each sequence in turn, at any
    /// thread count.
    ///
    /// The batch runs as one pool region over contiguous chunks of
    /// sequences, each chunk on one thread (its kernels serial). The chunk
    /// holding sequence 0 adds its gradients straight into the flat vector;
    /// every later chunk logs each contribution, in backward's call order,
    /// and the logs are added in batch order after the join — so every
    /// gradient element sees exactly the serial loop's additions. Sequences
    /// spread across threads only while one sequence's widest activation
    /// (`tokens × 4·hidden`, the GELU input) is below the element-wise
    /// parallelism threshold, i.e. while its GELU would run on one thread;
    /// wider sequences run one after another with their kernels fanning
    /// out instead, which keeps one sequence's activations in flight.
    ///
    /// # Errors
    /// Returns [`TensorError::Empty`] for an empty batch, before touching
    /// any state. If sequence `k` fails, returns its error with the
    /// gradients of sequences `< k` applied, as the serial loop would.
    pub fn batch_forward_backward<X, Y>(
        &mut self,
        batch: &[(X, Y)],
    ) -> Result<Vec<f32>, TensorError>
    where
        X: AsRef<[usize]> + Sync,
        Y: AsRef<[usize]> + Sync,
    {
        if batch.is_empty() {
            return Err(TensorError::Empty { what: "batch" });
        }
        let longest = batch.iter().map(|(x, _)| x.as_ref().len()).max();
        let widest = longest.unwrap_or(0) * 4 * self.weights.cfg.hidden;
        let pool = if elementwise_pool(widest).threads() == 1 {
            Pool::current()
        } else {
            Pool::new(1)
        };
        let chunks = pool.threads().min(batch.len());
        let mut outs: Vec<ChunkOut> = (0..chunks).map(|_| ChunkOut::default()).collect();
        let mut sinks = vec![GradSink::Direct(&mut self.grads)];
        sinks.resize_with(chunks, || GradSink::Log(Vec::new()));
        let parts: Vec<_> = sinks
            .into_iter()
            .zip(outs.iter_mut())
            .zip(contiguous_chunks(batch, chunks))
            .collect();
        let weights = &self.weights;
        pool.run_parts(parts, |_, ((mut sink, out), seqs)| {
            for (x, y) in seqs {
                match weights.forward_backward(x.as_ref(), y.as_ref(), &mut sink) {
                    Ok(loss) => out.losses.push(loss),
                    Err(e) => {
                        out.error = Some(e);
                        break;
                    }
                }
            }
            if let GradSink::Log(log) = sink {
                out.log = log;
            }
        });
        let mut losses = Vec::with_capacity(batch.len());
        for out in outs {
            for (offset, g) in &out.log {
                add_into(&mut self.grads[*offset..*offset + g.len()], g);
            }
            if let Some(e) = out.error {
                return Err(e);
            }
            losses.extend(out.losses);
        }
        Ok(losses)
    }

    /// Logits for a sequence (no loss computation) — used by causality tests
    /// and greedy sampling.
    ///
    /// # Errors
    /// Propagates [`TensorError`] from the forward pass.
    pub fn logits(&self, tokens: &[usize]) -> Result<Tensor, TensorError> {
        // Reuse forward with dummy targets; loss/dlogits are ignored.
        let targets = vec![0usize; tokens.len()];
        let cache = self.forward(tokens, &targets)?;
        cache.lnf_out.matmul_bt(&self.weights.tensor_of("wte"))
    }

    /// Mean cross-entropy loss over a batch of sequences, without touching
    /// gradients — the evaluation half of a train/eval loop.
    ///
    /// # Errors
    /// Propagates [`TensorError`] from the forward pass.
    pub fn evaluate(&self, batch: &[(Vec<usize>, Vec<usize>)]) -> Result<f32, TensorError> {
        let mut sum = 0.0f64;
        for (x, y) in batch {
            sum += self.forward(x, y)?.loss as f64;
        }
        Ok((sum / batch.len().max(1) as f64) as f32)
    }

    /// Perplexity over a batch: `exp(mean loss)`.
    ///
    /// # Errors
    /// Propagates [`TensorError`] from [`GptModel::evaluate`].
    pub fn perplexity(&self, batch: &[(Vec<usize>, Vec<usize>)]) -> Result<f32, TensorError> {
        Ok(self.evaluate(batch)?.exp())
    }

    /// Greedy autoregressive generation: extends `prompt` by `new_tokens`
    /// tokens, always picking the arg-max next token. The attention window
    /// slides over the last `max_seq` tokens when the sequence outgrows the
    /// learned positions.
    ///
    /// # Errors
    /// Propagates [`TensorError`] from the forward pass (e.g. an empty or
    /// out-of-vocabulary prompt).
    pub fn generate(&self, prompt: &[usize], new_tokens: usize) -> Result<Vec<usize>, TensorError> {
        let mut tokens = prompt.to_vec();
        for _ in 0..new_tokens {
            let window_start = tokens.len().saturating_sub(self.weights.cfg.max_seq);
            let window = &tokens[window_start..];
            let logits = self.logits(window)?;
            let last = logits.row(window.len() - 1)?;
            let next = last
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("non-empty vocabulary");
            tokens.push(next);
        }
        Ok(tokens)
    }
}

fn split_qkv(qkv: &Tensor, head: usize, d: usize, h: usize) -> (Tensor, Tensor, Tensor) {
    let t = qkv.shape()[0];
    let mut q = vec![0.0f32; t * d];
    let mut k = vec![0.0f32; t * d];
    let mut v = vec![0.0f32; t * d];
    // Each head's q/k/v slice of a row is contiguous (d elements), so the
    // gather is three block copies per row rather than scalar loads.
    for i in 0..t {
        let row = &qkv.data()[i * 3 * h..(i + 1) * 3 * h];
        q[i * d..(i + 1) * d].copy_from_slice(&row[head * d..(head + 1) * d]);
        k[i * d..(i + 1) * d].copy_from_slice(&row[h + head * d..h + (head + 1) * d]);
        v[i * d..(i + 1) * d].copy_from_slice(&row[2 * h + head * d..2 * h + (head + 1) * d]);
    }
    (
        Tensor::from_vec(q, &[t, d]).expect("qkv split shape"),
        Tensor::from_vec(k, &[t, d]).expect("qkv split shape"),
        Tensor::from_vec(v, &[t, d]).expect("qkv split shape"),
    )
}

fn merge_qkv_grad(
    d_qkv: &mut Tensor,
    d_q: &Tensor,
    d_k: &Tensor,
    d_v: &Tensor,
    head: usize,
    d: usize,
    h: usize,
) {
    let t = d_q.shape()[0];
    // d_qkv starts zeroed and every head owns a disjoint column stripe, so
    // the merge is a write-once scatter: three block copies per row.
    let data = d_qkv.data_mut();
    for i in 0..t {
        let row = &mut data[i * 3 * h..(i + 1) * 3 * h];
        row[head * d..(head + 1) * d].copy_from_slice(&d_q.data()[i * d..(i + 1) * d]);
        row[h + head * d..h + (head + 1) * d].copy_from_slice(&d_k.data()[i * d..(i + 1) * d]);
        row[2 * h + head * d..2 * h + (head + 1) * d]
            .copy_from_slice(&d_v.data()[i * d..(i + 1) * d]);
    }
}

fn apply_causal_mask(scores: &mut Tensor) {
    let t = scores.shape()[0];
    for i in 0..t {
        for j in (i + 1)..t {
            scores.data_mut()[i * t + j] = f32::NEG_INFINITY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model(seed: u64) -> GptModel {
        GptModel::new(GptConfig::tiny(), seed)
    }

    #[test]
    fn registration_layout_is_contiguous() {
        let m = tiny_model(1);
        let mut expected_offset = 0;
        for v in m.views() {
            assert_eq!(v.offset, expected_offset, "{} not contiguous", v.name);
            assert_eq!(v.len, v.shape.iter().product::<usize>());
            expected_offset += v.len;
        }
        assert_eq!(expected_offset, m.num_params());
        assert_eq!(m.params().len(), m.grads().len());
    }

    #[test]
    fn view_lookup() {
        let m = tiny_model(1);
        assert!(m.view("wte").is_some());
        assert!(m.view("block0.attn.wqkv").is_some());
        assert!(m.view("block1.mlp.w2").is_some());
        assert!(m.view("block2.mlp.w2").is_none());
    }

    #[test]
    fn forward_produces_finite_loss_near_log_vocab() {
        let m = tiny_model(2);
        let tokens: Vec<usize> = (0..16).map(|i| i % 64).collect();
        let targets: Vec<usize> = (1..17).map(|i| i % 64).collect();
        let cache = m.forward(&tokens, &targets).unwrap();
        assert!(cache.loss.is_finite());
        // At init, predictions are near-uniform: loss ≈ ln(vocab).
        assert!(
            (cache.loss - (64f32).ln()).abs() < 0.5,
            "loss {}",
            cache.loss
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = tiny_model(3);
        assert!(m.forward(&[], &[]).is_err());
        assert!(m.forward(&[999], &[0]).is_err()); // token out of vocab
        let long = vec![0usize; 33]; // > max_seq
        assert!(m.forward(&long, &long).is_err());
    }

    #[test]
    fn causal_masking_blocks_future_influence() {
        let m = tiny_model(4);
        let a = vec![5usize, 10, 20, 30];
        let mut b = a.clone();
        b[3] = 63; // change only the last token
        let la = m.logits(&a).unwrap();
        let lb = m.logits(&b).unwrap();
        // Logits at positions 0..2 must be identical.
        for pos in 0..3 {
            for v in 0..64 {
                assert_eq!(
                    la.get2(pos, v).unwrap(),
                    lb.get2(pos, v).unwrap(),
                    "future token leaked into position {pos}"
                );
            }
        }
        // Position 3 must differ somewhere.
        let differs = (0..64).any(|v| la.get2(3, v).unwrap() != lb.get2(3, v).unwrap());
        assert!(differs);
    }

    #[test]
    fn full_model_gradient_matches_finite_difference() {
        // Gradient-check a sample of parameters across every view kind.
        let mut m = GptModel::new(
            GptConfig {
                vocab: 17,
                hidden: 8,
                layers: 2,
                heads: 2,
                max_seq: 8,
            },
            7,
        );
        let tokens = [3usize, 11, 5, 0, 16];
        let targets = [11usize, 5, 0, 16, 2];
        m.zero_grads();
        let loss0 = m.forward_backward(&tokens, &targets).unwrap();
        assert!(loss0.is_finite());
        let grads = m.grads().to_vec();

        let eps = 3e-3f32;
        // Sample indices spread across the whole flat vector.
        let n = m.num_params();
        let sample: Vec<usize> = (0..60).map(|i| (i * 977) % n).collect();
        for &idx in &sample {
            let orig = m.params()[idx];
            m.params_mut()[idx] = orig + eps;
            let lp = m.forward(&tokens, &targets).unwrap().loss;
            m.params_mut()[idx] = orig - eps;
            let lm = m.forward(&tokens, &targets).unwrap().loss;
            m.params_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[idx];
            let tol = 2e-2 * (1.0 + numeric.abs().max(analytic.abs()));
            assert!(
                (numeric - analytic).abs() < tol,
                "param {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut m = tiny_model(5);
        let tokens = [1usize, 2, 3];
        let targets = [2usize, 3, 4];
        m.zero_grads();
        m.forward_backward(&tokens, &targets).unwrap();
        let g1 = m.grads().to_vec();
        m.forward_backward(&tokens, &targets).unwrap();
        let g2 = m.grads().to_vec();
        for (a, b) in g1.iter().zip(&g2) {
            assert!((b - 2.0 * a).abs() < 1e-4 * (1.0 + a.abs()));
        }
        m.zero_grads();
        assert!(m.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn same_seed_same_model() {
        let a = tiny_model(9);
        let b = tiny_model(9);
        assert_eq!(a.params(), b.params());
        let c = tiny_model(10);
        assert_ne!(a.params(), c.params());
    }

    #[test]
    fn evaluate_matches_forward_loss_and_leaves_grads_alone() {
        let mut m = tiny_model(41);
        m.zero_grads();
        let batch = vec![(vec![1usize, 2, 3], vec![2usize, 3, 4])];
        let eval = m.evaluate(&batch).unwrap();
        let fwd = m.forward(&batch[0].0, &batch[0].1).unwrap().loss;
        assert_eq!(eval, fwd);
        assert!(
            m.grads().iter().all(|&g| g == 0.0),
            "evaluate must not touch grads"
        );
        // Perplexity of uniform predictions ≈ vocab size.
        let ppl = m.perplexity(&batch).unwrap();
        assert!((ppl - eval.exp()).abs() < 1e-3);
        assert!(
            (40.0..90.0).contains(&ppl),
            "untrained ppl ≈ vocab, got {ppl}"
        );
    }

    #[test]
    fn generation_extends_prompt_within_vocab() {
        let m = tiny_model(21);
        let out = m.generate(&[1, 2, 3], 5).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < 64));
    }

    #[test]
    fn generation_handles_window_overflow() {
        // Prompt at max_seq: generation must slide the window, not error.
        let m = tiny_model(22);
        let prompt: Vec<usize> = (0..32).map(|i| i % 64).collect();
        let out = m.generate(&prompt, 4).unwrap();
        assert_eq!(out.len(), 36);
    }

    #[test]
    fn generation_rejects_bad_prompt() {
        let m = tiny_model(23);
        assert!(m.generate(&[], 3).is_err());
        assert!(m.generate(&[999], 3).is_err());
    }

    #[test]
    fn trained_model_generates_the_synthetic_rule() {
        // End-to-end language modeling: after training on the synthetic
        // stream, greedy generation should follow t -> (3t + 7) mod V.
        let mut m = GptModel::new(
            GptConfig {
                vocab: 32,
                hidden: 32,
                layers: 2,
                heads: 2,
                max_seq: 16,
            },
            31,
        );
        // Fully deterministic stream for a crisp target.
        let mut pile = crate::dataset::SyntheticPile::new(32, 31).with_signal(1.0);
        for _ in 0..220 {
            m.zero_grads();
            let (x, y) = pile.next_sequence(12);
            m.forward_backward(&x, &y).unwrap();
            let grads = m.grads().to_vec();
            for (p, g) in m.params_mut().iter_mut().zip(&grads) {
                *p -= 0.1 * g;
            }
        }
        // Generate from a short prompt that follows the rule.
        let t0 = 5usize;
        let t1 = (t0 * 3 + 7) % 32;
        let out = m.generate(&[t0, t1], 6).unwrap();
        let mut correct = 0;
        for w in out.windows(2) {
            if w[1] == (w[0] * 3 + 7) % 32 {
                correct += 1;
            }
        }
        assert!(
            correct >= out.len() - 3,
            "generation did not learn the rule: {out:?}"
        );
    }

    #[test]
    fn forward_backward_bit_identical_across_thread_counts() {
        // The full training step (embedding → attention → MLP → LM head →
        // backward) must produce bit-identical loss and gradients at every
        // worker count, because parallelism only partitions disjoint
        // output rows and heads.
        let tokens: Vec<usize> = (0..32).map(|i| (i * 5 + 3) % 64).collect();
        let targets: Vec<usize> = (0..32).map(|i| (i * 5 + 8) % 64).collect();
        let run = |threads: usize| {
            tensorlite::pool::with_threads(threads, || {
                let mut m = tiny_model(33);
                m.zero_grads();
                let loss = m.forward_backward(&tokens, &targets).unwrap();
                (loss, m.grads().to_vec())
            })
        };
        let (ref_loss, ref_grads) = run(1);
        for threads in [2usize, 7, 0] {
            let (loss, grads) = run(threads);
            assert_eq!(loss.to_bits(), ref_loss.to_bits(), "threads={threads}");
            assert_eq!(grads, ref_grads, "threads={threads}");
        }
    }

    #[test]
    fn sgd_training_reduces_loss() {
        let mut m = tiny_model(11);
        let tokens: Vec<usize> = (0..16).map(|i| (i * 3 + 1) % 64).collect();
        let targets: Vec<usize> = (1..17).map(|i| (i * 3 + 1) % 64).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..30 {
            m.zero_grads();
            let loss = m.forward_backward(&tokens, &targets).unwrap();
            if step == 0 {
                first = loss;
            }
            last = loss;
            let lr = 0.5;
            let grads = m.grads().to_vec();
            for (p, g) in m.params_mut().iter_mut().zip(&grads) {
                *p -= lr * g;
            }
        }
        assert!(
            last < first * 0.5,
            "loss did not decrease: first {first}, last {last}"
        );
    }
}
