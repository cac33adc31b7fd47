import dataclasses

import pytest

from logcoral import losses


@pytest.fixture
def flipped_target_gradients(monkeypatch):
    """coral_loss, logcoral_loss and mean_loss return their target gradient
    with the sign flipped, as a broken backward pass would. Values, inputs
    and the order of calls are unchanged."""
    for name in ("coral_loss", "logcoral_loss", "mean_loss"):
        def flipped(*args, real=getattr(losses, name), **kwargs):
            b = real(*args, **kwargs)
            return dataclasses.replace(b, grad_target=-b.grad_target)
        monkeypatch.setattr(losses, name, flipped)
