#pragma once
