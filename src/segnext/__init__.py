"""Convolutional segmentation models with multi-scale attention, a
self-contained autodiff engine, cost analysis, and a synthetic-data
training harness."""

from .analysis import CostReport, cost_report, count_flops, count_params
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import DataParams, RunConfig, TrainParams, parse_config, serialize_config
from .data import SegSample, augment, synth_dataset, target_mix
from .decoder import nmf_factorize, nmf_reconstruct
from .encoder import ConfigError, ModelConfig, preset
from .imagefile import ImageFormatError, read_pgm, read_ppm, write_pgm, write_ppm
from .model import ImageClassifier, SegModel, build_classifier, build_model
from .tensor import GradTape, Gradients, GraphError, ShapeError, Tensor, backward
from .train import (IouResult, OptimState, TrainingDiverged, TrainResult,
                    adamw_step, cross_entropy, evaluate, init_optim, miou,
                    ms_flip_inference, poly_lr, predict, train)

__version__ = "0.1.0"

__all__ = [
    "CostReport", "cost_report", "count_flops", "count_params",
    "CheckpointError", "load_checkpoint", "save_checkpoint",
    "DataParams", "RunConfig", "TrainParams", "parse_config", "serialize_config",
    "SegSample", "augment", "synth_dataset", "target_mix",
    "nmf_factorize", "nmf_reconstruct",
    "ConfigError", "ModelConfig", "preset",
    "ImageFormatError", "read_pgm", "read_ppm", "write_pgm", "write_ppm",
    "ImageClassifier", "SegModel", "build_classifier", "build_model",
    "GradTape", "Gradients", "GraphError", "ShapeError", "Tensor", "backward",
    "IouResult", "OptimState", "TrainingDiverged", "TrainResult",
    "adamw_step", "cross_entropy", "evaluate", "init_optim", "miou",
    "ms_flip_inference", "poly_lr", "predict", "train",
    "__version__",
]
