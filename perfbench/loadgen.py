"""Open-loop load generation at a fixed offered rate.

Request ``i`` is due at ``start + i / rate`` whether or not earlier
requests have finished.  Latency is measured from the *due* time, not
from the moment the generator got round to sending, so a stall that
delays later sends is charged to those requests; how late the generator
itself ran is reported separately.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

__all__ = ["Outcome", "open_loop"]

#: Time from the call to the first request's due time (seconds).
LEAD_S = 0.01


@dataclass(slots=True)
class Outcome:
    """One request's timing and result (``error`` set when it raised)."""

    index: int
    due: float
    sent: float
    done: float
    value: Any = None
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


async def open_loop(
    count: int,
    rate: float,
    send: Callable[[int], Awaitable[Any]],
) -> list[Outcome]:
    """Send ``count`` requests at ``rate`` per second; outcomes in order.

    ``send(i)`` issues request ``i``.  Exceptions are captured per
    request (a refused or timed-out request is an outcome, not a crash).
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    clock = time.perf_counter
    outcomes: list[Outcome | None] = [None] * count

    async def one(i: int, due: float) -> None:
        sent = clock()
        try:
            value = await send(i)
        except Exception as exc:  # recorded as a failed request
            outcomes[i] = Outcome(i, due, sent, clock(), error=exc)
        else:
            outcomes[i] = Outcome(i, due, sent, clock(), value)

    start = clock() + LEAD_S
    tasks = []
    for i in range(count):
        due = start + i / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(i, due)))
    await asyncio.gather(*tasks)
    return [o for o in outcomes if o is not None]
