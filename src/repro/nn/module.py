"""Module base class: parameter registration, state dicts, train/eval mode."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Module", "Parameter"]


#: The slot behind ``Parameter.data``: the stored array, or ``None`` while
#: a pinned operand is the weight's only copy.
STORED = Tensor.data


class Parameter(Tensor):
    """A tensor that is registered as trainable when assigned to a module.

    While an engine pins it (:func:`repro.nn.kernels.pin_operands`) its
    float64 operand may be the weight's only copy: ``data`` then rebuilds
    the float32 array exactly on first read and keeps it, read-only,
    until release; ``shape``, ``dtype`` and ``size`` never rebuild.
    """

    #: Inference-operand state while an engine pins this parameter
    #: (:func:`repro.nn.kernels.pin_operands`); ``None`` when unpinned.
    pin = None

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)

    @property
    def data(self) -> np.ndarray:
        stored = STORED.__get__(self)
        return stored if stored is not None else self.pin.rebuild(self)

    @data.setter
    def data(self, array: np.ndarray) -> None:
        STORED.__set__(self, array)
        if self.pin is not None:
            self.pin.forget()       # a replaced array invalidates the operand

    @property
    def stored(self) -> np.ndarray:
        """The array holding the weight now, read without rebuilding anything."""
        stored = STORED.__get__(self)
        return stored if stored is not None else self.pin.array

    @property
    def shape(self) -> Tuple[int, ...]:
        stored = STORED.__get__(self)
        return stored.shape if stored is not None else self.pin.shape

    @property
    def dtype(self):
        stored = STORED.__get__(self)
        return stored.dtype if stored is not None else self.pin.dtype

    @property
    def size(self) -> int:
        return self.stored.size


class Module:
    """Base class for all NN building blocks.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically for ``parameters()``,
    ``state_dict()`` and mode switching, mirroring the PyTorch contract.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            if attr == "training":
                continue
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{i}", item

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # Parameter counting / gradients
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs model {param.shape}"
                )
            param.data = value.astype(param.dtype, copy=True)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
