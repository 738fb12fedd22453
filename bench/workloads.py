"""The benchmark's workloads: seeded inputs, timed set-up, passes of operations.

One client runs each workload in a closed loop: the next operation starts
when the previous one has returned. A pass is one round over the workload's
fixed list of operations; the seed changes the audio, the data and the order
of operations, never their sizes, so every seed does the same amount of work.

  tag        The main user path: one WAV + one registry model -> top-10
             listing, for every clip under each of the five models. Forward
             only, batches of 1 to 20 patches, both families (musicnn conv and
             vgg pool_max), dsp with and without resampling; the long clip
             sets peak memory. Three malformed files must each raise their
             named error.
  train      One operation is a trainer.fit step (one batch, one epoch) on
             each registry config (MTT_musicnn, the attention MSD_musicnn,
             MTT_vgg; float32, batch 2) and each toy config (float64, batch
             8). The only workload with train-mode batch norm, backward_batch
             and Adam; the tall-kernel conv2d_backward dominates its time.
  transfer   transfer.run_pipeline with MTT_musicnn over manifests of short
             clips (1-5 patches) whose labels are separable by tone: many tiny
             forward batches, so per-call overhead outweighs the GEMMs, plus
             PCA and SVM fitting. No vgg and no backward code runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import synth
from meltag import dsp, network, store, tagger, trainer, transfer
from meltag.errors import CorruptHeaderError, UnsupportedFormatError


@dataclass
class Op:
    """One operation's outcome: wall seconds, work items done, problems found."""

    seconds: float
    items: int
    problems: list[str]
    parts: dict | None = None  # name -> (seconds, items) of the steps inside it


def expected_patches(n_samples: int, rate: int, cfg: dsp.DspConfig) -> int:
    n = n_samples * cfg.sample_rate // rate if rate != cfg.sample_rate else n_samples
    frames = (n - cfg.fft_size) // cfg.hop_size + 1
    return (frames - cfg.patch_frames) // cfg.patch_hop_frames + 1


def seconds_for_patches(n_patches: int, cfg: dsp.DspConfig) -> float:
    """Shortest clip at cfg's rate that yields n_patches, plus 50 ms."""
    frames = (n_patches - 1) * cfg.patch_hop_frames + cfg.patch_frames
    return (cfg.fft_size + (frames - 1) * cfg.hop_size) / cfg.sample_rate + 0.05


class Workload:
    name = ""
    warm_passes = 1  # untimed passes after set-up, so lazy allocation is not timed

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        """Only what set-up needs; make_inputs() writes the rest."""
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.notes: dict[str, float] = {}  # facts about the outputs of the first timed pass

    def make_inputs(self) -> None:
        pass

    # --- set-up -------------------------------------------------------------

    model_names: tuple[str, ...] = ()

    def build(self, name: str) -> network.Model:
        return store.load_registry_model(name)

    def prepare(self, name: str, loaded: network.Model) -> network.Model:
        return loaded

    def warm_up(self, model: network.Model) -> None:
        d = model.config.dsp
        network.forward_batch(np.zeros((1, d.patch_frames, d.n_mels)), model, bn_mode="infer")

    def setup(self) -> tuple[dict[str, network.Model], float, list[str]]:
        """Timed: build each model, write it as .mcn, read it back, warm it up."""
        start = time.perf_counter()
        models, built = {}, {}
        for name in self.model_names:
            model = self.build(name)
            path = self.workdir / f"{name}.mcn"
            store.save_model(model, path)
            models[name] = self.prepare(name, store.load_model(path))
            self.warm_up(models[name])
            built[name] = model.tensors()
        seconds = time.perf_counter() - start
        problems = []
        for name, tensors in built.items():
            problems += [f"{name}: {p}" for p in checks.round_trip(tensors, models[name].tensors())]
        return models, seconds, problems

    # --- timed work -----------------------------------------------------------

    def run_pass(self, models, tracer, pass_no: int, digest) -> list[Op]:
        raise NotImplementedError

    def exactness(self, models) -> list[str]:
        """Checks run once after the timed passes."""
        return []

    def details(self, ops: list[Op]) -> dict[str, float]:
        """Workload-specific numbers for the report, beside the end-to-end metrics."""
        return {}


def _outcome(call) -> tuple[object, Exception | None, float]:
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # any failure is an outcome to check, never a crash
        return None, exc, time.perf_counter() - start
    return result, None, time.perf_counter() - start


@dataclass(frozen=True)
class TagRequest:
    path: Path
    model: str
    patches: int  # expected taggram rows; 0 for a malformed file
    error: type | None = None


class Tag(Workload):
    name = "tag"
    warm_passes = 0  # set-up warms every model; one pass is already the longest
    model_names = store.MODEL_NAMES
    TOP_N = 10

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        super().__init__(seed, workdir, tiny)
        self.warm_clip = workdir / "warm.wav"
        self.warm_clip.write_bytes(synth.encode_wav(synth.music(self.rng, 3.2, 16000), 16000, "float32"))

    def make_inputs(self):
        cfg, workdir = dsp.DspConfig(), self.workdir
        # clip lengths are fixed (1-4 patches, then one 20-patch clip); the
        # seed only changes the music, so every seed costs the same
        lengths = [3.2, 7.0, 12.5] if self.tiny else list(np.linspace(3.2, 12.5, 12))
        clips = []
        for i, seconds in enumerate(lengths + [7.0 if self.tiny else 60.0]):
            long_clip = i == len(lengths)
            rate, channels, fmt = (44100, 2, "pcm16") if i % 2 or long_clip else (16000, 1, "float32")
            samples = synth.music(self.rng, seconds, rate, channels)
            path = workdir / f"clip{i:02d}.wav"
            path.write_bytes(synth.encode_wav(samples, rate, fmt))
            clips.append((path, expected_patches(len(samples), rate, cfg)))
        requests = [TagRequest(path, m, n) for path, n in clips for m in self.model_names]
        bad = synth.music(self.rng, 5.0, 16000)
        for name, blob, error in (
            ("truncated.wav", synth.truncated_wav(bad, 16000), CorruptHeaderError),
            ("pcm24.wav", synth.pcm24_wav(bad, 16000), UnsupportedFormatError),
            ("no_data.wav", synth.no_data_wav(16000), CorruptHeaderError),
        ):
            (workdir / name).write_bytes(blob)
            requests.append(TagRequest(workdir / name, "MTT_musicnn", 0, error))
        self.requests = [requests[i] for i in self.rng.permutation(len(requests))]
        # one request per model whose batch rows are compared with single-patch runs
        multi = [path for path, n in clips[:-1] if n >= 2]
        self.exact_requests = {m: multi[self.rng.integers(len(multi))] for m in self.model_names}
        self.exact_taggrams: dict[str, np.ndarray] = {}

    def warm_up(self, model):
        tagger.compute_taggram(self.warm_clip, model)

    def run_pass(self, models, tracer, pass_no, digest):
        ops = []
        for i, req in enumerate(self.requests):
            if tracer:
                tracer.request = (pass_no, i)
            model = models[req.model]

            def request():
                tg = tagger.compute_taggram(req.path, model)
                return tg, tagger.top_tags(tg, self.TOP_N)

            result, exc, seconds = _outcome(request)
            if req.error is not None:
                ops.append(Op(seconds, 0, checks.raised(exc, req.error)))
                if digest:
                    digest.update(type(exc).__name__.encode())
                continue
            if exc is not None:
                ops.append(Op(seconds, 0, [f"{req.path.name} on {req.model}: {type(exc).__name__}: {exc}"]))
                continue
            tg, listing = result
            problems = checks.taggram(tg.values, req.patches, len(model.tags))
            problems = problems or checks.top_listing(listing, tg.values, model.tags, self.TOP_N)
            ops.append(Op(seconds, req.patches, [f"{req.path.name} on {req.model}: {p}" for p in problems]))
            if digest:
                digest.update(np.ascontiguousarray(tg.values).tobytes())
                digest.update(repr(listing).encode())
            if pass_no == 0:
                self.notes["taggram_cells"] = self.notes.get("taggram_cells", 0) + tg.values.size
                self.notes["saturated_cells"] = self.notes.get("saturated_cells", 0) + checks.saturated(tg.values)
                if self.exact_requests[req.model] == req.path:
                    self.exact_taggrams[req.model] = tg.values
        return ops

    def exactness(self, models):
        problems = []
        for name, path in self.exact_requests.items():
            model = models[name]
            if name not in self.exact_taggrams:
                problems.append(f"{name}: no taggram kept for the exactness check")
                continue
            patches = dsp.patchify(dsp.log_mel(dsp.load_wav(path), model.config.dsp))
            rows = [network.forward_batch(p[None], model, bn_mode="infer")[1]["output"][0] for p in patches]
            problems += [f"{name} on {path.name}: {p}" for p in checks.rows_exact(self.exact_taggrams[name], rows)]
        return problems


class Train(Workload):
    name = "train"
    REGISTRY = ("MTT_musicnn", "MSD_musicnn", "MTT_vgg")  # float32, batch 2
    TOY = {  # float64 (the train CLI's default mode), batch 8
        "toy_musicnn": ("musicnn", "temporal_pooling"),
        "toy_musicnn_attention": ("musicnn", "attention"),
        "toy_vgg": ("vgg", "temporal_pooling"),
    }

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        super().__init__(seed, workdir, tiny)
        self.model_names = self.REGISTRY[-1:] + tuple(self.TOY) if tiny else self.REGISTRY + tuple(self.TOY)

    def batch(self, name: str) -> int:
        return 8 if name in self.TOY else 2

    def config(self, name: str) -> network.ModelConfig:
        return trainer.toy_model_config(*self.TOY[name]) if name in self.TOY else store.registry_get(name)[0]

    def build(self, name):
        if name in self.TOY:
            return network.build_model(self.config(name), init="random", seed=0, mode="float64")
        return store.load_registry_model(name)

    def prepare(self, name, loaded):
        # the container stores float32; toy configs train in float64
        return loaded.astype("float64") if name in self.TOY else loaded

    def make_inputs(self):
        self.data = {
            name: trainer.synthetic_dataset(self.config(name), self.batch(name), seed=self.seed * 7 + i)
            for i, name in enumerate(self.model_names)
        }

    def run_pass(self, models, tracer, pass_no, digest):
        """One operation: a fit step (one batch, one epoch) on every config in turn."""
        if tracer:
            tracer.request = (pass_no, 0)
        problems, parts = [], {}
        for name in self.model_names:
            model, (x, y), batch = models[name], self.data[name], self.batch(name)
            config = trainer.TrainConfig(batch_size=batch, epochs=1, seed=self.seed, mode=model.mode)
            log, exc, seconds = _outcome(lambda: trainer.fit(model, x, y, config))
            parts[name] = (seconds, batch)
            if exc is not None:
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            problems += [f"{name}: {p}" for p in checks.losses(log.epoch_losses)]
            if digest:
                digest.update(np.asarray(log.epoch_losses).tobytes())
        seconds = sum(sec for sec, _ in parts.values())
        return [Op(seconds, sum(batch for _, batch in parts.values()), problems, parts)]

    def details(self, ops):
        """Examples per second of step time, registry and toy configs apart."""
        out = {}
        for key, names in (("train_examples_per_s", self.REGISTRY), ("train_toy_examples_per_s", self.TOY)):
            steps = [op.parts[n] for op in ops for n in names if n in op.parts]
            out[key] = sum(b for _, b in steps) / sum(sec for sec, _ in steps) if steps else 0.0
        return out


class Transfer(Workload):
    name = "transfer"
    model_names = ("MTT_musicnn",)
    LABELS = {"low": (150.0, 300.0), "mid": (600.0, 1200.0), "high": (2400.0, 4800.0)}
    CLIPS = 24  # per manifest: 16 train and 8 test clips, labels and lengths interleaved
    ACCURACY_FLOOR = 0.75

    def make_inputs(self):
        cfg, workdir = dsp.DspConfig(), self.workdir
        n_clips = 6 if self.tiny else self.CLIPS
        self.manifests = []
        for k in range(1 if self.tiny else 2):
            lines = ["path,label,split"]
            for i in range(n_clips):
                label = list(self.LABELS)[i % 3]
                low, high = self.LABELS[label]
                seconds = seconds_for_patches(1 + i % 5, cfg)
                samples = synth.tone(self.rng, self.rng.uniform(low, high), seconds, cfg.sample_rate)
                name = f"m{k}_clip{i:02d}.wav"
                (workdir / name).write_bytes(synth.encode_wav(samples, cfg.sample_rate, "pcm16"))
                lines.append(f"{name},{label},{'test' if i % 3 == (i // 3) % 3 else 'train'}")
            path = workdir / f"manifest{k}.csv"
            path.write_text("\n".join(lines) + "\n")
            self.manifests.append((path, n_clips, sum(",test" in line for line in lines)))

    def run_pass(self, models, tracer, pass_no, digest):
        ops = []
        model = models["MTT_musicnn"]
        for i, (path, n_clips, n_test) in enumerate(self.manifests):
            if tracer:
                tracer.request = (pass_no, i)

            def pipeline():
                return transfer.run_pipeline(transfer.load_manifest(path), model, k=16, epochs=200)

            report, exc, seconds = _outcome(pipeline)
            if exc is not None:
                ops.append(Op(seconds, 0, [f"{path.name}: {type(exc).__name__}: {exc}"]))
                continue
            problems = checks.transfer_report(report.test_accuracy, report.confusion, n_test, self.ACCURACY_FLOOR)
            ops.append(Op(seconds, n_clips, [f"{path.name}: {p}" for p in problems]))
            if digest:
                digest.update(report.as_text().encode())
            if pass_no == 0:
                self.notes["lowest_test_accuracy"] = min(self.notes.get("lowest_test_accuracy", 1.0),
                                                         report.test_accuracy)
        return ops


WORKLOADS = {w.name: w for w in (Tag, Train, Transfer)}
